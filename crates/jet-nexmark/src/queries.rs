//! The NEXMark queries on the Pipeline API (paper §7.1).
//!
//! The evaluation runs Q1, Q2, Q5, Q8 and Q13; the paper's query list also
//! describes Q3, Q4, Q6 and Q7, all implemented here. Each function takes
//! the unified event stream and returns the query's output stage; callers
//! attach the measurement sink.

use crate::generator::NexmarkConfig;
use crate::model::{Auction, Bid, Event, Person};
use jet_core::processors::agg::{averaging, counting, maxing, AggregateOp};
use jet_core::processors::source::WatermarkPolicy;
use jet_core::Ts;
use jet_pipeline::{Pipeline, StreamStage, WindowDef, WindowResult};

/// Attach the NEXMark generator source to `p`.
pub fn source(
    p: &Pipeline,
    cfg: &NexmarkConfig,
    rate: u64,
    limit: Option<u64>,
    policy: WatermarkPolicy,
) -> StreamStage<Event> {
    let cfg = cfg.clone();
    p.read_from_generator_cfg("nexmark", rate, limit, policy, move |seq, ts| {
        cfg.event(seq, ts)
    })
}

/// Bids sub-stream.
pub fn bids(src: &StreamStage<Event>) -> StreamStage<Bid> {
    src.flat_map(|e: &Event| e.as_bid().cloned())
}

/// Auctions sub-stream.
pub fn auctions(src: &StreamStage<Event>) -> StreamStage<Auction> {
    src.flat_map(|e: &Event| e.as_auction().cloned())
}

/// Persons sub-stream.
pub fn persons(src: &StreamStage<Event>) -> StreamStage<Person> {
    src.flat_map(|e: &Event| e.as_person().cloned())
}

/// **Q1 — Currency conversion** (simple map): dollar prices to euros.
pub fn q1(src: &StreamStage<Event>) -> StreamStage<Bid> {
    bids(src).map(|b: &Bid| Bid {
        price: (b.price as f64 * 0.908) as i64,
        ..b.clone()
    })
}

/// **Q2 — Selection** (simple filter): bids on auctions with `id % 123 == 0`.
pub fn q2(src: &StreamStage<Event>) -> StreamStage<(u64, i64)> {
    bids(src)
        .filter(|b: &Bid| b.auction.is_multiple_of(123))
        .map(|b: &Bid| (b.auction, b.price))
}

/// **Q3 — Local item suggestion** (incremental join): sellers in OR/ID/CA
/// who list category-10 auctions. Output: (name, city, state, auction id).
pub fn q3(src: &StreamStage<Event>) -> StreamStage<(String, String, String, u64)> {
    src.filter(|e: &Event| match e {
        Event::Person(p) => matches!(p.state.as_str(), "OR" | "ID" | "CA"),
        Event::Auction(a) => a.category == 9, // categories are 0-based here
        Event::Bid(_) => false,
    })
    .map_stateful(
        |e: &Event| match e {
            Event::Person(p) => p.id,
            Event::Auction(a) => a.seller,
            Event::Bid(_) => unreachable!("bids filtered out"),
        },
        || (Option::<(String, String, String)>::None, Vec::<u64>::new()),
        |state, e| match e {
            Event::Person(p) => {
                state.0 = Some((p.name.clone(), p.city.clone(), p.state.clone()));
                let pending = std::mem::take(&mut state.1);
                let (n, c, s) = state.0.clone().expect("just set");
                Some(
                    pending
                        .into_iter()
                        .map(|a| (n.clone(), c.clone(), s.clone(), a))
                        .collect::<Vec<_>>(),
                )
            }
            Event::Auction(a) => match &state.0 {
                Some((n, c, s)) => Some(vec![(n.clone(), c.clone(), s.clone(), a.id)]),
                None => {
                    state.1.push(a.id);
                    Some(vec![])
                }
            },
            Event::Bid(_) => unreachable!(),
        },
    )
    .flat_map(|v: &Vec<(String, String, String, u64)>| v.clone())
}

/// **Q4 — Average price per category** (join + windowed aggregation): for
/// each auction the winning (max) bid in its window, averaged per category.
pub fn q4(src: &StreamStage<Event>, window: Ts) -> StreamStage<WindowResult<u64, f64>> {
    let wdef = WindowDef::tumbling(window);
    let auction_stream = auctions(src).grouping_key(|a: &Auction| a.id);
    let bid_stream = bids(src).grouping_key(|b: &Bid| b.auction);
    auction_stream
        .window(wdef)
        .cogroup(bid_stream)
        .flat_map(|r: &WindowResult<u64, (Vec<Auction>, Vec<Bid>)>| {
            let (aucs, bds) = &r.value;
            let winning = bds.iter().map(|b| b.price).max();
            match (aucs.first(), winning) {
                (Some(a), Some(price)) => Some((a.category, price)),
                _ => None,
            }
        })
        .grouping_key(|(cat, _): &(u64, i64)| *cat)
        .window(wdef)
        .aggregate(averaging::<(u64, i64)>(|(_, p)| *p))
}

/// **Q5 — Hot items** (sliding window aggregation): bids per auction per
/// window. The paper's headline query: a 10 s window sliding every 10 ms.
pub fn q5(src: &StreamStage<Event>, wdef: WindowDef) -> StreamStage<WindowResult<u64, u64>> {
    bids(src)
        .grouping_key(|b: &Bid| b.auction)
        .window(wdef)
        .aggregate(counting::<Bid>())
}

/// **Q6 — Average selling price by seller** (specialized combiner): mean of
/// the last 10 winning bids per seller. Winners approximated as the max bid
/// per auction per tumbling window, joined to the auction's seller.
pub fn q6(src: &StreamStage<Event>, window: Ts) -> StreamStage<(u64, i64)> {
    let wdef = WindowDef::tumbling(window);
    auctions(src)
        .grouping_key(|a: &Auction| a.id)
        .window(wdef)
        .cogroup(bids(src).grouping_key(|b: &Bid| b.auction))
        .flat_map(|r: &WindowResult<u64, (Vec<Auction>, Vec<Bid>)>| {
            let (aucs, bds) = &r.value;
            let winning = bds.iter().map(|b| b.price).max();
            match (aucs.first(), winning) {
                (Some(a), Some(price)) => Some((a.seller, price)),
                _ => None,
            }
        })
        .map_stateful(
            |(seller, _): &(u64, i64)| *seller,
            Vec::<i64>::new,
            |last10, (seller, price)| {
                last10.push(*price);
                if last10.len() > 10 {
                    last10.remove(0);
                }
                let avg = last10.iter().sum::<i64>() / last10.len() as i64;
                Some((*seller, avg))
            },
        )
}

/// **Q7 — Highest bid** (windowed max with fan-in to a single key): the top
/// bid price per tumbling window.
pub fn q7(src: &StreamStage<Event>, window: Ts) -> StreamStage<WindowResult<u64, i64>> {
    bids(src)
        .grouping_key(|_: &Bid| 0u64)
        .window(WindowDef::tumbling(window))
        .aggregate(maxing::<Bid>(|b| b.price))
}

/// **Q8 — Monitor new users** (stream-stream window join): persons who
/// created an auction in the same window. Output: (person id, name).
pub fn q8(src: &StreamStage<Event>, window: Ts) -> StreamStage<(u64, String)> {
    persons(src)
        .grouping_key(|p: &Person| p.id)
        .window(WindowDef::tumbling(window))
        .cogroup(auctions(src).grouping_key(|a: &Auction| a.seller))
        .flat_map(|r: &WindowResult<u64, (Vec<Person>, Vec<Auction>)>| {
            let (ps, aucs) = &r.value;
            match (ps.first(), aucs.is_empty()) {
                (Some(p), false) => Some((p.id, p.name.clone())),
                _ => None,
            }
        })
}

/// **Q13 — Bounded side-input join**: enrich bids against a static table
/// keyed by auction id.
pub fn q13(
    p: &Pipeline,
    src: &StreamStage<Event>,
    side: Vec<(u64, String)>,
) -> StreamStage<(u64, i64, String)> {
    let side_stage = p.read_from_vec(
        "side-input",
        side.into_iter().map(|kv| (0 as Ts, kv)).collect::<Vec<_>>(),
    );
    bids(src).hash_join(
        &side_stage,
        |(k, _): &(u64, String)| *k,
        |b: &Bid| b.auction,
        |b, matches| {
            matches
                .iter()
                .map(|(_, label)| (b.auction, b.price, label.clone()))
                .collect()
        },
    )
}

/// An aggregate op building the Q5 "hot items" top-N on top of counts, used
/// by examples: keeps the max-count auction per window.
pub fn hottest_auction() -> AggregateOp<Option<(i64, u64)>, (u64, u64)> {
    AggregateOp::of::<WindowResult<u64, u64>, _, _, _>(
        || None,
        |acc: &mut Option<(i64, u64)>, r: &WindowResult<u64, u64>| {
            let cand = (r.value as i64, r.key);
            *acc = Some(match acc {
                Some(best) => (*best).max(cand),
                None => cand,
            });
        },
        |a, b| {
            if let Some(bv) = b {
                *a = Some(a.map_or(*bv, |av| av.max(*bv)));
            }
        },
        |a| a.map(|(count, key)| (key, count as u64)).unwrap_or((0, 0)),
    )
}
