//! Property-based coverage of the wire protocol parser: `parse_request`
//! never panics on arbitrary/adversarial byte lines (framing verbs
//! included), and `encode_request` → `parse_request` round-trips every
//! representable request exactly.

use fdrms::Op;
use proptest::prelude::*;
use rms_geom::Point;
use rms_serve::protocol::{encode_request, parse_request, Request};

/// Arbitrary byte soup rendered as a (lossy) line — covers non-UTF8
/// leftovers, control characters, embedded NULs, absurd lengths.
fn arb_junk_line() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..120)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Adversarial near-miss lines: real verbs with fuzzed argument tails,
/// the corner of the grammar a uniform byte fuzzer almost never reaches.
fn arb_near_miss_line() -> impl Strategy<Value = String> {
    let verbs = [
        "INSERT",
        "DELETE",
        "UPDATE",
        "QUERY",
        "STATS",
        "SHUTDOWN",
        "HELLO",
        "BATCH",
        "SUBSCRIBE",
        "METRICS",
        "insert",
        "Batch",
        "subscribe",
        "metrics",
        "",
    ];
    let args = [
        "",
        " ",
        " 1",
        " 1 2 3",
        " -1",
        " 18446744073709551616", // u64::MAX + 1
        " 99999999999999999999999999",
        " v",
        " v0",
        " v2 v2",
        " every=",
        " every=0",
        " every=-1",
        " every=99999999999999999999",
        " ids=",
        " ids=1..0",
        " ids=3..9",
        " ids=..",
        " ids=1..2 ids=3..4",
        " every=2 ids=1..5",
        " NaN inf -inf",
        " 0.5 .5 5e-1",
        " 1 0.5 0.5 0.5 0.5 0.5 0.5 0.5",
        " \u{0} \u{7f}",
        "\tx",
    ];
    (0..verbs.len(), 0..args.len(), 1usize..7).prop_map(move |(v, a, d)| {
        // Smuggle the dimensionality into the line so the runner can
        // vary it too (split back out in the test body).
        format!("{d}\u{1}{}{}", verbs[v], args[a])
    })
}

/// A strategy for valid requests at a given dimensionality.
fn arb_request(d: usize) -> impl Strategy<Value = Request> {
    let coords = prop::collection::vec(0.0f64..=1.0, d..=d);
    let point = (0u64..1_000_000, coords).prop_map(|(id, c)| Point::new_unchecked(id, c));
    let p2 = point.clone();
    prop_oneof![
        point.prop_map(|p| Request::Submit(Op::Insert(p))),
        p2.prop_map(|p| Request::Submit(Op::Update(p))),
        (0u64..1_000_000).prop_map(|id| Request::Submit(Op::Delete(id))),
        (0u64..1).prop_map(|_| Request::Query),
        (0u64..1).prop_map(|_| Request::Stats),
        (0u64..1).prop_map(|_| Request::Shutdown),
        (1u32..100).prop_map(Request::Hello),
        (0usize..1_000_000).prop_map(Request::Batch),
        (1u64..1_000_000).prop_map(|every| Request::Subscribe {
            every,
            filter: None
        }),
        (1u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000).prop_map(|(every, a, b)| {
            Request::Subscribe {
                every,
                filter: Some((a.min(b), a.max(b))),
            }
        }),
        (0u64..1).prop_map(|_| Request::Metrics),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Junk never panics (a panic would kill the connection thread; the
    /// contract is an `ERR` reply and a fresh parse of the next line).
    #[test]
    fn junk_lines_never_panic(line in arb_junk_line(), d in 1usize..7) {
        let _ = parse_request(&line, d);
    }

    /// Near-miss lines never panic either, and whatever parses must
    /// re-encode to something that parses back to the same request
    /// (idempotence of the canonical form).
    #[test]
    fn near_miss_lines_never_panic(tagged in arb_near_miss_line()) {
        let (d, line) = tagged.split_once('\u{1}').expect("tagged line");
        let d: usize = d.parse().expect("tagged dimensionality");
        if let Ok(req) = parse_request(line, d) {
            let canonical = encode_request(&req);
            prop_assert_eq!(parse_request(&canonical, d), Ok(req));
        }
    }

    /// Canonical encoding round-trips exactly, coordinates included
    /// (f64 `Display` is shortest-round-trip).
    #[test]
    fn encode_parse_round_trip(d in 1usize..7, seed in any::<u64>()) {
        let mut rng = proptest::test_runner::new_rng(&format!("round-trip-{seed}"));
        let req = arb_request(d).generate(&mut rng);
        let line = encode_request(&req);
        prop_assert_eq!(parse_request(&line, d), Ok(req), "{}", line);
    }
}
