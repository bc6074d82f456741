//! Seeded property tests for the server's decoders: the handshake bytes,
//! `read_frame`, and the `query` member of an `Optimize` request
//! (`ljqo_json::parse`, then `QueryFile::from_value` and `into_query`).
//!
//! Random bytes and mutations of valid inputs must never panic. Every
//! payload `read_frame` returns is at most the frame cap, and every
//! framing error maps through `read_error_code` to a stable code:
//! `frame_too_large` exactly when the declared length exceeds the cap,
//! `protocol_error` otherwise.
//!
//! Offline property-test idiom: seeded-RNG loops, one derived seed per
//! case, failures reproduce exactly. Inputs that once broke a decoder
//! are kept as fixed cases.

use std::io;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ljqo_cli::QueryFile;
use ljqo_json::Value;
use ljqo_server::protocol::{
    codes, read_error_code, read_frame, read_handshake, write_frame, write_handshake, FrameType,
    HEADER_LEN, MAGIC,
};
use ljqo_workload::{generate_job_query, JobShape, JobSpec};

const CASES: u64 = 512;

/// Every code a `Response` or `Error` payload may carry.
const ALL_CODES: [&str; 8] = [
    codes::OVERLOAD,
    codes::DRAINING,
    codes::BAD_REQUEST,
    codes::INVALID_QUERY,
    codes::OPTIMIZER_FAILED,
    codes::UNSUPPORTED_VERSION,
    codes::FRAME_TOO_LARGE,
    codes::PROTOCOL_ERROR,
];

const FRAME_TYPES: [FrameType; 5] = [
    FrameType::Optimize,
    FrameType::Response,
    FrameType::Stats,
    FrameType::StatsResponse,
    FrameType::Error,
];

fn byte(rng: &mut SmallRng) -> u8 {
    rng.gen::<u32>() as u8
}

fn random_bytes(rng: &mut SmallRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| byte(rng)).collect()
}

/// Apply one to four random edits: overwrite, insert or delete a byte,
/// truncate, or write a big-endian `u32` (a plausible length prefix).
fn mutate(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..5) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..5) {
            0 if at < bytes.len() => bytes[at] = byte(rng),
            1 => bytes.insert(at, byte(rng)),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => bytes.truncate(at),
            _ => {
                let len: u32 = match rng.gen_range(0..3) {
                    0 => rng.gen_range(0..64),
                    1 => rng.gen_range(0..1 << 20),
                    _ => rng.gen(),
                };
                let end = (at + 4).min(bytes.len());
                bytes.splice(at..end, len.to_be_bytes());
            }
        }
    }
}

/// What `read_frame` must answer for a stream starting with `bytes`:
/// `Ok(None)` on an empty stream, a frame when the header and payload are
/// complete and the type and length are acceptable, and otherwise an
/// error whose code is known from the header alone.
enum Expect {
    Eof,
    Frame(FrameType, usize),
    Error(&'static str),
}

fn expect(bytes: &[u8], cap: usize) -> Expect {
    let Some(&first) = bytes.first() else {
        return Expect::Eof;
    };
    let Some(kind) = FrameType::from_byte(first) else {
        return Expect::Error(codes::PROTOCOL_ERROR);
    };
    let Some(len) = bytes.get(1..HEADER_LEN) else {
        return Expect::Error(codes::PROTOCOL_ERROR);
    };
    let len = u32::from_be_bytes(len.try_into().unwrap()) as usize;
    if len > cap {
        Expect::Error(codes::FRAME_TOO_LARGE)
    } else if bytes.len() < HEADER_LEN + len {
        Expect::Error(codes::PROTOCOL_ERROR)
    } else {
        Expect::Frame(kind, len)
    }
}

/// Decode `wire` frame by frame to its end or its first error, checking
/// every step against [`expect`].
fn check_stream(case: u64, wire: &[u8], cap: usize) {
    let mut rest = wire;
    loop {
        let want = expect(rest, cap);
        let before = rest;
        match (read_frame(&mut rest, cap), want) {
            (Ok(None), Expect::Eof) => return,
            (Ok(Some(frame)), Expect::Frame(kind, len)) => {
                assert!(frame.payload.len() <= cap, "case {case}: payload over cap");
                assert_eq!(frame.kind, kind, "case {case}");
                assert_eq!(frame.payload.len(), len, "case {case}");
                assert_eq!(frame.payload, before[HEADER_LEN..HEADER_LEN + len]);
            }
            (Err(e), Expect::Error(code)) => {
                let got = read_error_code(&e);
                assert!(ALL_CODES.contains(&got), "case {case}: unknown code {got}");
                assert_eq!(got, code, "case {case}: {e}");
                assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "case {case}: {e}"
                );
                return;
            }
            (got, _) => panic!("case {case}: unexpected decode {got:?} of {before:?}"),
        }
    }
}

/// A well-formed stream of one to four frames with short JSON-ish
/// payloads.
fn valid_stream(rng: &mut SmallRng) -> Vec<u8> {
    let mut wire = Vec::new();
    for _ in 0..rng.gen_range(1..5) {
        let kind = FRAME_TYPES[rng.gen_range(0..FRAME_TYPES.len())];
        let payload = format!("{{\"id\":{},\"query\":{{}}}}", rng.gen::<u32>());
        write_frame(&mut wire, kind, payload.as_bytes()).unwrap();
    }
    wire
}

#[test]
fn handshake_decoder_accepts_exactly_the_magic() {
    let mut valid = Vec::new();
    write_handshake(&mut valid).unwrap();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf4a3_0001 ^ case);
        let bytes = if case % 2 == 0 {
            random_bytes(&mut rng, 8)
        } else {
            let mut bytes = valid.clone();
            mutate(&mut rng, &mut bytes);
            bytes
        };
        match read_handshake(&mut bytes.as_slice()) {
            Ok(version) => {
                assert!(
                    bytes.len() >= HEADER_LEN && bytes[..4] == MAGIC,
                    "case {case}"
                );
                assert_eq!(version, bytes[4], "case {case}");
            }
            Err(e) => assert!(
                bytes.len() < HEADER_LEN || bytes[..4] != MAGIC,
                "case {case}: {e}"
            ),
        }
    }
}

#[test]
fn frame_decoder_respects_the_cap_and_maps_every_error() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf4a3_0002 ^ case);
        let cap = [0, 16, 64, 4096][rng.gen_range(0..4usize)];
        let wire = match case % 3 {
            0 => random_bytes(&mut rng, 64),
            1 => valid_stream(&mut rng),
            _ => {
                let mut wire = valid_stream(&mut rng);
                mutate(&mut rng, &mut wire);
                wire
            }
        };
        check_stream(case, &wire, cap);
    }
    // A declared length of `u32::MAX` with no payload behind it trips the
    // cap before any allocation.
    let wire = [FrameType::Optimize.byte(), 0xff, 0xff, 0xff, 0xff];
    check_stream(u64::MAX, &wire, 1024);
}

/// A random JSON value up to `depth` levels deep, with the shapes the
/// query decoder checks for: names, integers, fractions, negative and
/// huge numbers.
fn random_value(rng: &mut SmallRng, depth: u32) -> Value {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Number(
            [0.0, -1.0, 0.5, 1.5, 1e300, -1e300, 2f64.powi(64), 42.0][rng.gen_range(0..8usize)],
        ),
        3 => Value::Number(rng.gen_range(0u64..100_000) as f64),
        4 => Value::String(["R0", "R1", "", "relations", "joins"][rng.gen_range(0..5usize)].into()),
        5 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| {
                    let key = ["name", "cardinality", "selections", "left", "right"]
                        [rng.gen_range(0..5usize)];
                    (key.to_string(), random_value(rng, depth - 1))
                })
                .collect(),
        ),
    }
}

/// Replace one random node of `v` (possibly the root) with a random
/// value, or drop one member of a random container.
fn mutate_value(rng: &mut SmallRng, v: &mut Value) {
    let children = match v {
        Value::Array(items) => items.len(),
        Value::Object(fields) => fields.len(),
        _ => 0,
    };
    if children == 0 || rng.gen_range(0..4) == 0 {
        *v = random_value(rng, 2);
        return;
    }
    let i = rng.gen_range(0..children);
    if rng.gen_range(0..8) == 0 {
        match v {
            Value::Array(items) => {
                items.remove(i);
            }
            Value::Object(fields) => {
                fields.remove(i);
            }
            _ => unreachable!("only containers have children"),
        }
        return;
    }
    match v {
        Value::Array(items) => mutate_value(rng, &mut items[i]),
        Value::Object(fields) => mutate_value(rng, &mut fields[i].1),
        _ => unreachable!("only containers have children"),
    }
}

/// Run the request decoder on `text` as the server does. A decoded query
/// must be valid.
fn decode(case: u64, text: &str) {
    let Ok(doc) = ljqo_json::parse(text) else {
        return;
    };
    if let Ok(query) = QueryFile::from_value(&doc).and_then(QueryFile::into_query) {
        assert!(query.validate().is_ok(), "case {case}: {text}");
    }
}

#[test]
fn query_decoder_never_panics_on_mutated_documents() {
    let shapes = [JobShape::Star, JobShape::Snowflake, JobShape::Cyclic];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xf4a3_0003 ^ case);
        let shape = shapes[case as usize % shapes.len()];
        let query = generate_job_query(&JobSpec::new(shape), rng.gen_range(1..8), case);
        let mut doc = QueryFile::from_query(&query).to_json();
        match case % 3 {
            0 => {
                for _ in 0..rng.gen_range(1..4) {
                    mutate_value(&mut rng, &mut doc);
                }
                decode(case, &doc.to_string());
            }
            1 => {
                let mut bytes = doc.to_string().into_bytes();
                mutate(&mut rng, &mut bytes);
                decode(case, &String::from_utf8_lossy(&bytes));
            }
            _ => decode(case, &random_value(&mut rng, 4).to_string()),
        }
    }
}

#[test]
fn deeply_nested_payloads_are_rejected_not_overflowed() {
    // Each nesting level is one recursive call in a recursive-descent
    // parser; a frame of open brackets well under the 4 MiB cap must be
    // a parse error, not a stack overflow of the reader thread.
    for open in ["[", "{\"query\":", "[{\"a\":"] {
        let text = open.repeat(200_000);
        assert!(ljqo_json::parse(&text).is_err());
    }
    let nested = format!("{}{}", "[".repeat(64), "]".repeat(64));
    assert!(ljqo_json::parse(&nested).is_ok());
}
