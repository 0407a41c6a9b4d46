//! Hand-rolled parser for the TOML subset `analyze-baseline.toml` uses
//! (no registry access, so no real `toml` crate): `[[allow]]` tables with
//! `key = "value"` string entries and `#` comments. Every entry must carry
//! a non-empty `reason` — the baseline is an audit trail, not a mute
//! button.

/// One audited, allowed violation.
#[derive(Debug, Clone, Default)]
pub struct BaselineEntry {
    /// Check class name (`alloc`, `block`, ..., see [`crate::Effect`]).
    pub effect: String,
    /// Qualified containing fn (`crates/.../file.rs::Type::fn`) or, for
    /// the ordering pass, `field:<name>`.
    pub site: String,
    /// Matched pattern text (`` .push_back( ``, `format!`, `release-unpaired`).
    pub pattern: String,
    /// Why this site is safe. Required.
    pub reason: String,
}

impl BaselineEntry {
    pub fn matches(&self, key: &(String, String, String)) -> bool {
        self.effect == key.0 && self.site == key.1 && self.pattern == key.2
    }
}

/// Parse the baseline file. Errors carry 1-based line numbers.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries: Vec<BaselineEntry> = Vec::new();
    let mut in_entry = false;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            entries.push(BaselineEntry::default());
            in_entry = true;
            continue;
        }
        if line.starts_with('[') {
            return Err(format!(
                "line {lineno}: unknown table `{line}` (only [[allow]] is supported)"
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {lineno}: expected `key = \"value\"`, got `{line}`"
            ));
        };
        if !in_entry {
            return Err(format!(
                "line {lineno}: `{}` appears before the first [[allow]] table",
                key.trim()
            ));
        }
        let value = value.trim();
        let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
            return Err(format!(
                "line {lineno}: value must be a double-quoted string, got `{value}`"
            ));
        };
        let entry = entries.last_mut().expect("in_entry implies an entry");
        let slot = match key.trim() {
            "effect" => &mut entry.effect,
            "site" => &mut entry.site,
            "pattern" => &mut entry.pattern,
            "reason" => &mut entry.reason,
            other => {
                return Err(format!(
                    "line {lineno}: unknown key `{other}` (expected effect/site/pattern/reason)"
                ))
            }
        };
        if !slot.is_empty() {
            return Err(format!("line {lineno}: duplicate key `{}`", key.trim()));
        }
        *slot = value.to_string();
    }
    for (n, e) in entries.iter().enumerate() {
        if e.effect.is_empty() || e.site.is_empty() || e.pattern.is_empty() {
            return Err(format!(
                "entry {}: effect, site, and pattern are all required",
                n + 1
            ));
        }
        if crate::Effect::parse(&e.effect).is_none() {
            return Err(format!(
                "entry {}: unknown effect `{}` (known: {})",
                n + 1,
                e.effect,
                crate::Effect::known()
            ));
        }
        if e.reason.trim().len() < 8 {
            return Err(format!(
                "entry {} ({} | {}): reason is required — explain why this audited site is safe",
                n + 1,
                e.effect,
                e.site
            ));
        }
    }
    Ok(entries)
}
