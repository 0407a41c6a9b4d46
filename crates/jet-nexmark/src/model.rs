//! NEXMark entities \[35\]: people who run auctions, and the bids on them.
//!
//! Field sets follow the Apache Beam NEXMark suite the paper uses (§7.1),
//! trimmed to what the queries touch. All types are snapshot-serializable
//! (`Snap`) so they can live inside windowed co-group accumulators.

use jet_core::state::Snap;
use jet_core::Ts;
use jet_util::codec::{ByteReader, ByteWriter, DecodeError};

/// A registered person (potential seller/bidder).
#[derive(Debug, Clone, PartialEq)]
pub struct Person {
    pub id: u64,
    pub name: String,
    /// Two-letter US state, the Q3 filter target.
    pub state: String,
    pub city: String,
    pub ts: Ts,
}

/// An auction listing.
#[derive(Debug, Clone, PartialEq)]
pub struct Auction {
    pub id: u64,
    pub seller: u64,
    pub category: u64,
    pub initial_bid: i64,
    /// Event time the auction closes.
    pub expires: Ts,
    pub ts: Ts,
}

/// A bid on an auction.
#[derive(Debug, Clone, PartialEq)]
pub struct Bid {
    pub auction: u64,
    pub bidder: u64,
    pub price: i64,
    pub ts: Ts,
}

/// The unified generator output stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Person(Person),
    Auction(Auction),
    Bid(Bid),
}

impl Event {
    pub fn ts(&self) -> Ts {
        match self {
            Event::Person(p) => p.ts,
            Event::Auction(a) => a.ts,
            Event::Bid(b) => b.ts,
        }
    }

    pub fn as_bid(&self) -> Option<&Bid> {
        match self {
            Event::Bid(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_auction(&self) -> Option<&Auction> {
        match self {
            Event::Auction(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_person(&self) -> Option<&Person> {
        match self {
            Event::Person(p) => Some(p),
            _ => None,
        }
    }
}

impl Snap for Person {
    fn save(&self, w: &mut ByteWriter) {
        w.put_varint(self.id);
        w.put_str(&self.name);
        w.put_str(&self.state);
        w.put_str(&self.city);
        self.ts.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Person {
            id: r.get_varint()?,
            name: r.get_str()?.to_string(),
            state: r.get_str()?.to_string(),
            city: r.get_str()?.to_string(),
            ts: Ts::load(r)?,
        })
    }
}

impl Snap for Auction {
    fn save(&self, w: &mut ByteWriter) {
        w.put_varint(self.id);
        w.put_varint(self.seller);
        w.put_varint(self.category);
        self.initial_bid.save(w);
        self.expires.save(w);
        self.ts.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Auction {
            id: r.get_varint()?,
            seller: r.get_varint()?,
            category: r.get_varint()?,
            initial_bid: i64::load(r)?,
            expires: Ts::load(r)?,
            ts: Ts::load(r)?,
        })
    }
}

impl Snap for Bid {
    fn save(&self, w: &mut ByteWriter) {
        w.put_varint(self.auction);
        w.put_varint(self.bidder);
        self.price.save(w);
        self.ts.save(w);
    }
    fn load(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        Ok(Bid {
            auction: r.get_varint()?,
            bidder: r.get_varint()?,
            price: i64::load(r)?,
            ts: Ts::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snap_roundtrips() {
        let p = Person {
            id: 7,
            name: "n7".into(),
            state: "OR".into(),
            city: "Portland".into(),
            ts: 123,
        };
        assert_eq!(Person::from_bytes(&p.to_bytes()).unwrap(), p);
        let a = Auction {
            id: 1,
            seller: 7,
            category: 3,
            initial_bid: 100,
            expires: 99,
            ts: 5,
        };
        assert_eq!(Auction::from_bytes(&a.to_bytes()).unwrap(), a);
        let b = Bid {
            auction: 1,
            bidder: 2,
            price: -5,
            ts: 10,
        };
        assert_eq!(Bid::from_bytes(&b.to_bytes()).unwrap(), b);
    }

    #[test]
    fn event_accessors() {
        let e = Event::Bid(Bid {
            auction: 1,
            bidder: 2,
            price: 3,
            ts: 4,
        });
        assert_eq!(e.ts(), 4);
        assert!(e.as_bid().is_some());
        assert!(e.as_person().is_none());
        assert!(e.as_auction().is_none());
    }
}
