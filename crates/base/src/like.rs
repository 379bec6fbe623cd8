//! SQL `LIKE` matching, shared by the relational and the object engine.

/// True when `text` matches the `LIKE` `pattern`: `%` matches any run
/// of characters (the empty run too), `_` exactly one character, and
/// every other character itself.
///
/// Text and pattern both arrive from peers, so the match runs in
/// O(|text| · |pattern|) time on constant stack. It walks both strings
/// left to right; on a mismatch it returns to the most recent `%` and
/// lets that `%` absorb one more character of text. Earlier `%`s never
/// need another try: whatever they could absorb, the latest one can
/// absorb as well.
pub fn like_match(text: &str, pattern: &str) -> bool {
    let (mut ti, mut pi) = (0, 0);
    // Just past the latest `%`, and where in the text the rest of the
    // pattern is being tried.
    let mut retry: Option<(usize, usize)> = None;
    while let Some(tc) = text[ti..].chars().next() {
        match pattern[pi..].chars().next() {
            Some('%') => {
                pi += 1;
                retry = Some((pi, ti));
            }
            Some(pc) if pc == '_' || pc == tc => {
                pi += pc.len_utf8();
                ti += tc.len_utf8();
            }
            _ => {
                let Some((after_pct, tried)) = retry else {
                    return false;
                };
                let skipped = text[tried..]
                    .chars()
                    .next()
                    .expect("the retry point lies before the current character");
                (pi, ti) = (after_pct, tried + skipped.len_utf8());
                retry = Some((pi, ti));
            }
        }
    }
    pattern[pi..].chars().all(|c| c == '%')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{cases, string_of};

    /// The recursive definition the matcher replaces: one stack frame
    /// per pattern character and exponential time on patterns like
    /// `%a%a%a…b`. Kept as the reference the differential test checks
    /// against.
    fn like_reference(text: &str, pattern: &str) -> bool {
        fn rec(t: &[char], p: &[char]) -> bool {
            match p.split_first() {
                None => t.is_empty(),
                Some(('%', rest)) => (0..=t.len()).any(|i| rec(&t[i..], rest)),
                Some(('_', rest)) => t.split_first().is_some_and(|(_, tr)| rec(tr, rest)),
                Some((c, rest)) => t
                    .split_first()
                    .is_some_and(|(tc, tr)| tc == c && rec(tr, rest)),
            }
        }
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        rec(&t, &p)
    }

    #[test]
    fn empty_and_multibyte_edges() {
        assert!(like_match("", ""));
        assert!(!like_match("", "_"));
        assert!(!like_match("a", ""));
        assert!(like_match("Müller", "M_ll%"));
        assert!(like_match("naïve café", "%ï%é"));
    }

    #[test]
    fn agrees_with_the_recursive_reference() {
        cases(2000, |rng| {
            let text = string_of(rng, "abé", 0..9);
            let pattern = string_of(rng, "ab%_é", 0..7);
            assert_eq!(
                like_match(&text, &pattern),
                like_reference(&text, &pattern),
                "{text:?} LIKE {pattern:?}"
            );
        });
    }
}
