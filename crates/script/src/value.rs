//! Tcl-style list handling and numeric conversions.
//!
//! TacoScript values are strings, as in Tcl.  A *list* is a string whose
//! elements are separated by whitespace, with braces grouping elements that
//! themselves contain whitespace.  These helpers are used by `foreach`,
//! `lindex`, `llength`, `lappend` and by agents that exchange lists through
//! folders.

/// Splits a Tcl-style list string into its elements.
///
/// Braces group elements containing whitespace; nested braces are preserved
/// inside an element.  An unbalanced closing brace is treated literally.
pub fn parse_list(src: &str) -> Vec<String> {
    let mut elems = Vec::new();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // Skip whitespace.
        while i < chars.len() && chars[i].is_whitespace() {
            i += 1;
        }
        if i >= chars.len() {
            break;
        }
        if chars[i] == '{' {
            // Braced element.
            let mut depth = 1;
            let mut elem = String::new();
            i += 1;
            while i < chars.len() && depth > 0 {
                match chars[i] {
                    '{' => {
                        depth += 1;
                        elem.push('{');
                    }
                    '}' => {
                        depth -= 1;
                        if depth > 0 {
                            elem.push('}');
                        }
                    }
                    c => elem.push(c),
                }
                i += 1;
            }
            elems.push(elem);
        } else {
            let mut elem = String::new();
            while i < chars.len() && !chars[i].is_whitespace() {
                elem.push(chars[i]);
                i += 1;
            }
            elems.push(elem);
        }
    }
    elems
}

/// Formats elements as a Tcl-style list string, bracing elements that contain
/// whitespace or are empty.
pub fn format_list<I, S>(elems: I) -> String
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out = String::new();
    for (i, elem) in elems.into_iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let e = elem.as_ref();
        if e.is_empty() || e.chars().any(|c| c.is_whitespace()) {
            out.push('{');
            out.push_str(e);
            out.push('}');
        } else {
            out.push_str(e);
        }
    }
    out
}

/// Parses a string as an integer if possible (decimal, optional sign).
pub fn as_int(s: &str) -> Option<i64> {
    s.trim().parse::<i64>().ok()
}

/// Converts a float result back to a canonical string (integers print without
/// a decimal point, as Tcl's `expr` does for integral results).
pub fn num_to_string(v: f64) -> String {
    if v.is_finite() && v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Tcl-style truthiness: "0", "" and "false" are false; everything else true.
pub fn is_truthy(s: &str) -> bool {
    let t = s.trim();
    !(t.is_empty() || t == "0" || t.eq_ignore_ascii_case("false") || t.eq_ignore_ascii_case("no"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_list() {
        assert_eq!(parse_list("a b c"), vec!["a", "b", "c"]);
        assert_eq!(parse_list("  a   b  "), vec!["a", "b"]);
        assert!(parse_list("").is_empty());
        assert!(parse_list("   ").is_empty());
    }

    #[test]
    fn parse_braced_elements() {
        assert_eq!(parse_list("a {b c} d"), vec!["a", "b c", "d"]);
        assert_eq!(parse_list("{x {y z}} w"), vec!["x {y z}", "w"]);
        assert_eq!(parse_list("{}"), vec![""]);
    }

    #[test]
    fn format_and_parse_round_trip() {
        let elems = vec!["plain", "has space", "", "nested {ok}"];
        let formatted = format_list(&elems);
        assert_eq!(formatted, "plain {has space} {} {nested {ok}}");
        let parsed = parse_list(&formatted);
        assert_eq!(parsed, elems);
    }

    #[test]
    fn numeric_conversions() {
        assert_eq!(as_int("42"), Some(42));
        assert_eq!(as_int(" -7 "), Some(-7));
        assert_eq!(as_int("4.5"), None);
        assert_eq!(num_to_string(3.0), "3");
        assert_eq!(num_to_string(3.25), "3.25");
        assert_eq!(num_to_string(-0.0), "0");
    }

    #[test]
    fn truthiness() {
        assert!(is_truthy("1"));
        assert!(is_truthy("yes please"));
        assert!(!is_truthy("0"));
        assert!(!is_truthy(""));
        assert!(!is_truthy("false"));
        assert!(!is_truthy("No"));
    }
}
