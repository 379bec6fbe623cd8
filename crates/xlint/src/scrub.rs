//! Source scrubbing: blank comments, string/char literals, and lifetime
//! ticks while preserving byte offsets and newlines.

pub fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// The identifier immediately before byte offset `end` in `text`
/// (used to name the lock site: `self.entries.lock()` → `entries`).
pub fn ident_before(text: &str, end: usize) -> Option<String> {
    let bytes = text.as_bytes();
    let mut j = end;
    while j > 0 && is_ident_byte(bytes[j - 1]) {
        j -= 1;
    }
    if j == end {
        return None;
    }
    Some(text[j..end].to_owned())
}

/// Blank out comments, string literals, char literals, and lifetime
/// ticks, preserving every newline (so byte offsets keep their line
/// numbers) and leaving all other characters in place.
pub fn scrub(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Ordinary string literal (raw strings are handled below
                // via the `r` prefix case before we ever see the quote).
                out.push(b' ');
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        out.push(b' ');
                        i += 1;
                        if i < bytes.len() {
                            out.push(blank(bytes[i]));
                            i += 1;
                        }
                    } else {
                        out.push(blank(bytes[i]));
                        i += 1;
                    }
                }
                out.push(b' ');
                i += 1;
            }
            b'r' if matches!(bytes.get(i + 1), Some(b'"') | Some(b'#'))
                && (i == 0 || !is_ident_byte(bytes[i - 1])) =>
            {
                // Raw string r"…", r#"…"#, r##"…"##, …
                let mut hashes = 0;
                let mut j = i + 1;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    out.extend(std::iter::repeat_n(b' ', j - i + 1));
                    let mut k = j + 1;
                    'raw: while k < bytes.len() {
                        if bytes[k] == b'"' {
                            let mut h = 0;
                            while bytes.get(k + 1 + h) == Some(&b'#') && h < hashes {
                                h += 1;
                            }
                            if h == hashes {
                                out.extend(std::iter::repeat_n(b' ', hashes + 1));
                                k += 1 + hashes;
                                break 'raw;
                            }
                        }
                        out.push(blank(bytes[k]));
                        k += 1;
                    }
                    i = k;
                } else {
                    out.push(bytes[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal or lifetime. `'a` (lifetime) has no
                // closing quote nearby; `'x'` / `'\n'` do.
                let close = if bytes.get(i + 1) == Some(&b'\\') {
                    bytes.get(i + 3) == Some(&b'\'') || bytes.get(i + 4) == Some(&b'\'')
                } else {
                    bytes.get(i + 2) == Some(&b'\'')
                };
                if close {
                    let end = if bytes.get(i + 1) == Some(&b'\\') {
                        if bytes.get(i + 3) == Some(&b'\'') {
                            i + 3
                        } else {
                            i + 4
                        }
                    } else {
                        i + 2
                    };
                    out.extend(std::iter::repeat_n(b' ', end - i + 1));
                    i = end + 1;
                } else {
                    out.push(b' '); // lifetime tick
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A blanked byte: newlines stay, so offsets keep their line numbers.
fn blank(b: u8) -> u8 {
    if b == b'\n' {
        b'\n'
    } else {
        b' '
    }
}

/// Re-scan a file recording which line ranges belong to `#[cfg(test)]`
/// modules, so findings inside them can be dropped.
pub fn test_line_ranges(scrubbed: &str) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut depth = 0usize;
    let mut line = 1usize;
    let mut pending = false;
    let mut open: Option<(usize, usize)> = None; // (depth, start_line)
    let mut window = String::new();
    for c in scrubbed.chars() {
        match c {
            '\n' => {
                line += 1;
                if window.contains("#[cfg(test") || window.contains("#[cfg(all(test") {
                    pending = true;
                } else if !window.trim().is_empty() && !window.trim_start().starts_with("#[") {
                    // A non-attribute line between the cfg and the mod
                    // cancels the pending flag unless it opens the mod.
                    if !window.contains("mod ") {
                        pending = false;
                    }
                }
                window.clear();
            }
            '{' => {
                if pending && window.contains("mod ") && open.is_none() {
                    open = Some((depth, line));
                    pending = false;
                }
                depth += 1;
                window.clear();
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if let Some((d, start)) = open {
                    if depth == d {
                        ranges.push((start, line));
                        open = None;
                    }
                }
                window.clear();
            }
            _ => window.push(c),
        }
    }
    if let Some((_, start)) = open {
        ranges.push((start, line));
    }
    ranges
}

pub fn in_ranges(ranges: &[(usize, usize)], line: usize) -> bool {
    ranges.iter().any(|(s, e)| line >= *s && line <= *e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings_preserving_lines() {
        let src = "let a = \"x.lock()\"; // .invoke(\nlet b = 1; /* .read() */ let c = 'x';";
        let s = scrub(src);
        assert!(!s.contains("x.lock()"));
        assert!(!s.contains(".invoke("));
        assert!(!s.contains(".read()"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
        assert!(s.contains("let b = 1;"));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn scrub_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let s = r#\"a.lock()\"#; }";
        let s = scrub(src);
        assert!(!s.contains("a.lock()"));
        assert!(s.contains("fn f"));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn test_ranges_cover_cfg_test_modules() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let s = scrub(src);
        let ranges = test_line_ranges(&s);
        assert_eq!(ranges.len(), 1);
        assert!(in_ranges(&ranges, 4));
        assert!(!in_ranges(&ranges, 1));
    }
}
