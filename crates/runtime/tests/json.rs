//! `vod_runtime::json`: what the writer writes the reader reads back —
//! any value, any layout — and what is cut short or malformed is refused
//! with an offset inside the input, never a panic.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use vod_runtime::json::{parse, Json, Layout, MAX_DEPTH};

const LAYOUTS: [Layout; 3] = [Layout::Compact, Layout::Line, Layout::Block];

/// SplitMix64, so one proptest seed unfolds into a whole document.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Text over every escape class: quote, backslash, the named and the
/// `\u00XX` control bytes, and non-ASCII up to an astral character.
fn text(state: &mut u64) -> String {
    let palette = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'a', ' ', 'é', '→', '😀',
    ];
    let len = next(state) % 6;
    (0..len)
        .map(|_| palette[(next(state) % 14) as usize])
        .collect()
}

/// A random value nested `depth` levels at most.
fn value(state: &mut u64, depth: u32) -> Json {
    let layout = LAYOUTS[(next(state) % 3) as usize];
    let children = next(state) % 4;
    match next(state) % if depth == 0 { 7 } else { 9 } {
        0 => Json::Null,
        1 => Json::Bool(next(state).is_multiple_of(2)),
        2 => Json::U64(next(state) >> (next(state) % 64)),
        3 => Json::U64(u64::MAX),
        4 => Json::F64(
            Some(f64::from_bits(next(state)))
                .filter(|x| x.is_finite())
                .unwrap_or(-0.0),
        ),
        5 => {
            // Exact at its precision: k / 10^d prints back as its own digits.
            let (k, decimals) = ((next(state) % 2_000_000_000) as f64 - 1e9, next(state) % 7);
            Json::Fixed(k / 10f64.powi(decimals as i32), decimals as usize)
        }
        6 => Json::Str(text(state)),
        7 => Json::Array(
            layout,
            (0..children).map(|_| value(state, depth - 1)).collect(),
        ),
        _ => {
            let field = |i| (format!("{i}{}", text(state)), value(state, depth - 1));
            Json::object(layout, (0..children).map(field).collect::<Vec<_>>())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn what_is_written_reads_back(seed in 0u64..u64::MAX) {
        let mut state = seed;
        let written = value(&mut state, 4);
        let text = written.render();
        prop_assert_eq!(parse(&text), Ok(written), "{}", text);
        // Cut short anywhere, an array, object or string is refused.
        let mut cut = (next(&mut state) % text.len() as u64) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        if matches!(text.as_bytes()[0], b'[' | b'{' | b'"') {
            let offset = parse(&text[..cut]).unwrap_err().offset;
            prop_assert!(offset <= cut, "offset {} past {:?}", offset, &text[..cut]);
        }
    }
}

#[test]
fn each_layout_is_pinned() {
    let doc = |layout| {
        let empty = Json::Object(layout, Vec::new());
        let list = Json::Array(layout, vec![true.into(), Json::Null, Json::Fixed(0.5, 3)]);
        Json::object(layout, [("a", 1u64.into()), ("b", list), ("c", empty)])
    };
    assert_eq!(
        doc(Layout::Compact).render(),
        r#"{"a":1,"b":[true,null,0.500],"c":{}}"#
    );
    assert_eq!(
        doc(Layout::Line).render(),
        r#"{"a": 1, "b": [true, null, 0.500], "c": {}}"#
    );
    let block = "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null,\n    0.500\n  ],\n  \"c\": {}\n}";
    assert_eq!(doc(Layout::Block).render(), block);
    assert_eq!(Json::from(f64::NAN).render(), "null");
}

#[test]
fn the_reader_is_strict() {
    let deep = "[".repeat(MAX_DEPTH + 2);
    // (input, offset of the error)
    #[rustfmt::skip]
    let refused = [
        ("", 0), ("nul", 0), ("[1,]", 3), ("[1 2]", 3), ("{\"a\" 1}", 5), ("{a:1}", 1), ("[] x", 3),
        ("{\"a\":1,\"b\":2,\"a\":3}", 13), ("01", 0), ("-", 1), ("1.", 2), (".5", 0), ("+1", 0),
        ("1e", 2), ("1e999", 0), ("\"a\u{1}b\"", 2), ("\"abc", 4), ("\"\\x\"", 2), ("\"\\u12g4\"", 3),
        ("\"\\ud800\"", 7), ("\"\\ud800\\u0041\"", 13), ("\"\\udc00\"", 7), (deep.as_str(), MAX_DEPTH + 1),
    ];
    for (input, offset) in refused {
        assert_eq!(parse(input).map_err(|e| e.offset), Err(offset), "{input:?}");
    }
    #[rustfmt::skip]
    let accepted = [
        (" [ 1 , 2 ] ", Json::Array(Layout::Block, vec![1u64.into(), 2u64.into()])),
        ("\"\\ud83d\\ude00 \\u005f\\/\\b\\f\"", "😀 _/\u{8}\u{c}".into()),
        ("1E+2", 100.0.into()), ("-0", (-0.0).into()), ("18446744073709551615", u64::MAX.into()),
        ("18446744073709551616", 18446744073709551616.0.into()),
    ];
    for (input, value) in accepted {
        assert_eq!(parse(input), Ok(value), "{input:?}");
    }
    assert_eq!(parse("-5").unwrap().as_u64(), None, "not a counter");
}
