//! Robustness: the interpreter must never panic, whatever script text it
//! is fed — errors are Tcl errors, not crashes.

use wafe_prop::cases;
use wafe_tcl::Interp;

/// Arbitrary byte-soup scripts produce Ok or Err, never a panic.
#[test]
fn eval_never_panics() {
    cases(256, |rng| {
        let script = rng.unicode_string(0, 81);
        let mut i = Interp::new();
        let _ = i.eval(&script);
    });
}

/// Arbitrary scripts built from Tcl metacharacters.
#[test]
fn metachar_soup_never_panics() {
    let alphabet: Vec<char> = "[]{}$\"\\; \n abcdefghijklmnopqrstuvwxyz0123456789%"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 61);
        let script = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.eval(&script);
    });
}

/// Arbitrary expressions produce Ok or Err, never a panic.
#[test]
fn expr_never_panics() {
    let alphabet: Vec<char> = "0123456789abcdefghijklmnopqrstuvwxyz+*/()<>=!&|^ .\"-"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 41);
        let text = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.eval(&format!("expr {{{text}}}"));
    });
}

/// format with arbitrary format strings never panics.
#[test]
fn format_never_panics() {
    let alphabet: Vec<char> = "%abcdefghijklmnopqrstuvwxyz0123456789 .#+-"
        .chars()
        .collect();
    cases(256, |rng| {
        let len = rng.range(0, 31);
        let fmt = rng.string_from(&alphabet, len);
        let mut i = Interp::new();
        let _ = i.invoke(&["format".into(), fmt.into(), "42".into(), "x".into()]);
    });
}

/// Widths and precisions past the 64 KB line limit are Tcl errors, not
/// panics or gigabyte strings; the largest accepted ones still work.
#[test]
fn format_rejects_huge_fields() {
    let mut i = Interp::new();
    for script in [
        "format %.999999f 1.0",
        "format %999999999d 1",
        "format %.65536e 1.0",
        "format %65536s x",
        "format %.99999999999999999999999s x",
        "format %99999999999999999999999999d 1",
        "format {%-0+ 70000.3f} 1",
    ] {
        let err = i.eval(script).expect_err(script);
        assert!(
            err.to_string()
                .contains("exceeds the 65535-character limit"),
            "{script}: {err}"
        );
    }
    assert_eq!(i.eval("string length [format %65535d 1]").unwrap(), "65535");
    assert_eq!(
        i.eval("string length [format %.65535f 1.0]").unwrap(),
        (2 + 65535).to_string()
    );
    assert_eq!(i.eval("format %5.2f 3.14159").unwrap(), " 3.14");
}

/// Deep but bounded nesting is handled (no stack overflow).
#[test]
fn nested_brackets_bounded() {
    cases(32, |rng| {
        let depth = rng.range(1, 60);
        let mut i = Interp::new();
        let script = format!("{}set x 1{}", "[".repeat(depth), "]".repeat(depth));
        let _ = i.eval(&script);
    });
}

#[test]
fn pathological_inputs() {
    let mut i = Interp::new();
    for s in [
        "{",
        "}",
        "[",
        "]",
        "\"",
        "$",
        "\\",
        "${",
        "$()",
        "a{b}c",
        "set",
        "set {",
        "proc p",
        "if",
        "while",
        "foreach x",
        "expr",
        "expr (",
        "expr 1+",
        "string",
        "array",
        "format %",
        "\u{0}",
        "\u{7f}\u{1b}",
        "%% % %w",
        "# only a comment",
        ";;;;",
        "\n\n\n",
        "set \u{fffd} 1",
    ] {
        let _ = i.eval(s); // Must not panic.
    }
}

#[test]
fn recursion_is_bounded_not_fatal() {
    let mut i = Interp::new();
    i.eval("proc f {} {f}").unwrap();
    let e = i.eval("f").unwrap_err();
    assert!(e.message().contains("too many nested calls"));
    // The interpreter is still usable afterwards.
    assert_eq!(i.eval("expr 1+1").unwrap(), "2");
}

#[test]
fn long_flat_scripts() {
    let mut i = Interp::new();
    let script: String = (0..2000).map(|k| format!("set v{k} {k}\n")).collect();
    i.eval(&script).unwrap();
    assert_eq!(i.get_var("v1999").unwrap(), "1999");
}

mod regex_props {
    use wafe_prop::cases;
    use wafe_tcl::regex::Regex;

    fn quote(s: &str) -> String {
        s.chars()
            .flat_map(|c| {
                if "\\^$.[]()*+?|".contains(c) {
                    vec!['\\', c]
                } else {
                    vec![c]
                }
            })
            .collect()
    }

    /// A quoted literal always matches itself, exactly.
    #[test]
    fn quoted_literal_matches_itself() {
        cases(256, |rng| {
            let s = rng.ascii_string(21);
            let re = Regex::compile(&format!("^{}$", quote(&s)), false).unwrap();
            assert!(re.is_match(&s));
        });
    }

    /// A quoted literal embedded in noise is found at the right span.
    #[test]
    fn literal_found_in_noise() {
        let low: Vec<char> = ('a'..='m').collect();
        let high: Vec<char> = ('n'..='z').collect();
        cases(256, |rng| {
            let pre_len = rng.range(0, 9);
            let pre = rng.string_from(&low, pre_len);
            let needle_len = rng.range(1, 9);
            let needle = rng.string_from(&high, needle_len);
            let post_len = rng.range(0, 9);
            let post = rng.string_from(&low, post_len);
            let hay = format!("{pre}{needle}{post}");
            let re = Regex::compile(&quote(&needle), false).unwrap();
            let m = re.find(&hay).expect("must match");
            let (lo, hi) = m.spans[0].unwrap();
            assert_eq!(hi - lo, needle.chars().count());
            let got: String = hay.chars().skip(lo).take(hi - lo).collect();
            assert_eq!(got, needle);
        });
    }

    /// Compiling arbitrary pattern text never panics.
    #[test]
    fn compile_never_panics() {
        cases(256, |rng| {
            let pattern = rng.unicode_string(0, 25);
            let _ = Regex::compile(&pattern, false);
        });
    }

    /// Matching never panics, whatever the compiled pattern and text.
    #[test]
    fn find_never_panics() {
        let pat_alphabet: Vec<char> = "abc.*+?()|[]^$".chars().collect();
        let text_alphabet: Vec<char> = "abc".chars().collect();
        cases(256, |rng| {
            let pat_len = rng.range(0, 11);
            let pattern = rng.string_from(&pat_alphabet, pat_len);
            let text_len = rng.range(0, 13);
            let text = rng.string_from(&text_alphabet, text_len);
            if let Ok(re) = Regex::compile(&pattern, false) {
                let _ = re.find(&text);
            }
        });
    }

    /// `x*` matches every string of x's entirely.
    #[test]
    fn star_matches_runs() {
        cases(32, |rng| {
            let n = rng.range(0, 20);
            let s = "x".repeat(n);
            let re = Regex::compile("^x*$", false).unwrap();
            assert!(re.is_match(&s));
        });
    }

    /// regexp agrees with string match for prefix patterns.
    #[test]
    fn agrees_with_glob_prefix() {
        let alphabet: Vec<char> = ('a'..='z').collect();
        cases(256, |rng| {
            let s_len = rng.range(1, 11);
            let s = rng.string_from(&alphabet, s_len);
            let t_len = rng.range(1, 11);
            let t = rng.string_from(&alphabet, t_len);
            let mut i = wafe_tcl::Interp::new();
            let glob = i
                .invoke(&[
                    "string".into(),
                    "match".into(),
                    format!("{s}*").into(),
                    t.clone().into(),
                ])
                .unwrap();
            let re = i
                .invoke(&["regexp".into(), format!("^{s}").into(), t.clone().into()])
                .unwrap();
            assert_eq!(glob, re);
        });
    }
}
