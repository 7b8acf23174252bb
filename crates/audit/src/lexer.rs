//! A self-contained Rust "significance lexer" for the audit rules.
//!
//! The vendor tree deliberately carries no `syn`, so the audit does not
//! parse Rust — it *strips*: comments (line and nested block), string
//! literals (plain, raw with any number of `#`, byte and byte-raw),
//! character literals (while leaving lifetimes alone), `#[cfg(test)]`
//! items (test-only code cannot leak into published digests), and all
//! remaining attributes. Every stripped byte is replaced by a space so
//! offsets and line numbers in the output text match the original file
//! exactly — a rule that finds a token at byte `i` reports the line the
//! token sits on in the real source.

/// Strip comments, string/char literals, `#[cfg(test)]` items and
/// attributes from `src`, preserving byte offsets (stripped bytes become
/// spaces; newlines survive).
#[must_use]
pub fn strip(src: &str) -> String {
    let pass1 = strip_comments_and_literals(src);
    let pass2 = strip_cfg_test_items(&pass1);
    strip_attributes(&pass2)
}

/// 1-indexed line number of byte offset `at` in `text`.
#[must_use]
pub fn line_of(text: &str, at: usize) -> usize {
    text.as_bytes()[..at.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Replace `buf[start..end]` with spaces, leaving newlines in place.
fn blank(buf: &mut [u8], start: usize, end: usize) {
    let end = end.min(buf.len());
    for b in &mut buf[start..end] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// True if `b` can be part of an identifier.
fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Pass 1: blank comments, strings, and char literals.
#[allow(clippy::too_many_lines)]
fn strip_comments_and_literals(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let end = src[i..].find('\n').map_or(bytes.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comments, as in real Rust.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let end = skip_string(bytes, i);
                blank(&mut out, i, end);
                i = end;
            }
            b'r' | b'b' if !prev_is_ident(bytes, i) => {
                // Possible raw/byte string prefix: r", r#", br", b", b'…'.
                if let Some(end) = skip_prefixed_literal(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                if let Some(end) = skip_char_literal(bytes, i) {
                    blank(&mut out, i, end);
                    i = end;
                } else {
                    // A lifetime: leave the tick and its identifier alone.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: only ASCII bytes are replaced")
}

/// Whether the byte before `i` continues an identifier (so `r`/`b` at `i`
/// is part of a name like `var`, not a literal prefix).
fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && is_ident(bytes[i - 1])
}

/// Byte offset one past the closing quote of the plain string starting
/// at `start` (which must hold `"`).
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Recognize `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` starting at
/// `start`; returns the end offset, or `None` if this is not a literal.
fn skip_prefixed_literal(bytes: &[u8], start: usize) -> Option<usize> {
    let mut j = start + 1;
    if bytes[start] == b'b' {
        if bytes.get(j) == Some(&b'\'') {
            return skip_char_literal(bytes, j);
        }
        if bytes.get(j) == Some(&b'r') {
            j += 1;
        } else if bytes.get(j) != Some(&b'"') && bytes.get(j) != Some(&b'#') {
            return None;
        }
    }
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    if hashes == 0 && bytes[start] != b'r' && bytes.get(start + 1) == Some(&b'"') {
        // b"…": plain escaping rules.
        return Some(skip_string(bytes, start + 1));
    }
    // Raw string: ends at `"` followed by `hashes` hash marks; no escapes.
    j += 1;
    while j < bytes.len() {
        if bytes[j] == b'"'
            && bytes[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&b| b == b'#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(bytes.len())
}

/// Recognize a char literal starting at `start` (which holds `'`);
/// returns its end, or `None` when the tick introduces a lifetime.
fn skip_char_literal(bytes: &[u8], start: usize) -> Option<usize> {
    let next = *bytes.get(start + 1)?;
    if next == b'\\' {
        // Escaped char: find the closing quote.
        let mut j = start + 2;
        while j < bytes.len() {
            match bytes[j] {
                b'\\' => j += 2,
                b'\'' => return Some(j + 1),
                _ => j += 1,
            }
        }
        return Some(bytes.len());
    }
    if is_ident(next) && bytes.get(start + 2) != Some(&b'\'') {
        return None; // 'a in a generic position: a lifetime.
    }
    // 'x' (any single char, possibly multi-byte UTF-8).
    let rest = &bytes[start + 1..];
    let close = rest.iter().position(|&b| b == b'\'')?;
    Some(start + 1 + close + 1)
}

/// Pass 2: blank every item annotated `#[cfg(test)]` (attribute chain
/// through the matching close brace, or through `;` for brace-less
/// items). Test-only code cannot perturb simulation determinism.
fn strip_cfg_test_items(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    let mut search = 0;
    while let Some(rel) = text[search..].find("#[cfg(test)]") {
        let at = search + rel;
        let mut j = at;
        // Swallow the whole attribute chain after the cfg marker.
        loop {
            j = skip_ws(text, j);
            if text[j..].starts_with("#[") {
                j = match_bracket(text, j + 1, b'[', b']');
            } else {
                break;
            }
        }
        // Item body: to the matching `}` (or `;` when no block opens).
        let bytes = text.as_bytes();
        let mut k = j;
        let end = loop {
            if k >= bytes.len() {
                break bytes.len();
            }
            match bytes[k] {
                b'{' => break match_bracket(text, k, b'{', b'}'),
                b';' => break k + 1,
                _ => k += 1,
            }
        };
        blank(&mut out, at, end);
        search = end;
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: only ASCII bytes are replaced")
}

/// Pass 3: blank every remaining `#[…]` / `#![…]` attribute.
fn strip_attributes(text: &str) -> String {
    let mut out = text.as_bytes().to_vec();
    let mut search = 0;
    while let Some(rel) = text[search..].find('#') {
        let at = search + rel;
        let bytes = text.as_bytes();
        let open = match bytes.get(at + 1) {
            Some(b'[') => at + 1,
            Some(b'!') if bytes.get(at + 2) == Some(&b'[') => at + 2,
            _ => {
                search = at + 1;
                continue;
            }
        };
        let end = match_bracket(text, open, b'[', b']');
        blank(&mut out, at, end);
        search = end;
    }
    String::from_utf8(out).expect("blanking preserves UTF-8: only ASCII bytes are replaced")
}

/// Offset one past the bracket matching `text[open]` (depth-counted).
fn match_bracket(text: &str, open: usize, ob: u8, cb: u8) -> usize {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[open], ob);
    let mut depth = 0usize;
    let mut j = open;
    while j < bytes.len() {
        if bytes[j] == ob {
            depth += 1;
        } else if bytes[j] == cb {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    bytes.len()
}

/// First non-whitespace offset at or after `from`.
fn skip_ws(text: &str, from: usize) -> usize {
    text.as_bytes()[from..]
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .map_or(text.len(), |n| from + n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip("let a = 1; // Instant::now\n/* SystemTime */ let b = 2;");
        assert!(!s.contains("Instant"));
        assert!(!s.contains("SystemTime"));
        assert!(s.contains("let a = 1;"));
        assert!(s.contains("let b = 2;"));
    }

    #[test]
    fn strips_nested_block_comments() {
        let s = strip("a /* outer /* inner */ still */ b");
        assert!(s.contains('a') && s.contains('b'));
        assert!(!s.contains("still"));
    }

    #[test]
    fn strips_strings_and_raw_strings_preserving_offsets() {
        let src = "x(\"Instant::now\"); y(r#\"thread_rng\"#);";
        let s = strip(src);
        assert_eq!(s.len(), src.len());
        assert!(!s.contains("Instant"));
        assert!(!s.contains("thread_rng"));
    }

    #[test]
    fn char_literals_stripped_lifetimes_kept() {
        let s = strip("let c = 'x'; fn f<'a>(v: &'a str) { let n = '\\n'; }");
        assert!(!s.contains('x'));
        assert!(s.contains("'a"));
        assert!(!s.contains("\\n"));
    }

    #[test]
    fn cfg_test_modules_are_blanked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { m.iter(); }\n}\n";
        let s = strip(src);
        assert!(s.contains("fn live"));
        assert!(!s.contains("iter"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn attributes_are_blanked() {
        let s = strip("#[derive(Debug)]\nstruct S;\n#[inline]\nfn f() {}");
        assert!(!s.contains("derive"));
        assert!(!s.contains("inline"));
        assert!(s.contains("struct S;"));
    }

    #[test]
    fn line_of_counts_from_one() {
        let s = "a\nb\nc";
        assert_eq!(line_of(s, 0), 1);
        assert_eq!(line_of(s, 2), 2);
        assert_eq!(line_of(s, 4), 3);
    }
}
