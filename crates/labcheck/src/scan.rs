//! Source preprocessing for the lint pass.
//!
//! The lints are line-oriented, but raw source lines are full of traps: a
//! pattern like `Ordering::Relaxed` may appear inside a string literal or a
//! doc comment, and an annotation like `// relaxed-ok:` must only count
//! when it really is a comment. This module does one conservative
//! tokenizer-lite pass per file and hands the lints two parallel views of
//! every line:
//!
//! - `code`: the line with comments removed and string/char literal
//!   *bodies* blanked (quotes kept, contents dropped), so substring
//!   matching on code never fires inside literals;
//! - `comment`: the concatenated comment text of the line (line comments,
//!   doc comments, and the slice of any block comment crossing the line),
//!   which is where annotations live.
//!
//! It also marks which lines sit inside a `#[cfg(test)]` item, so lints
//! that only govern shipping code can skip test modules.

/// One preprocessed source line.
#[derive(Debug, Clone)]
pub(crate) struct Line {
    /// Code with comments stripped and literal bodies blanked.
    pub(crate) code: String,
    /// Comment text on this line (including the `//` / `/*` markers).
    pub(crate) comment: String,
    /// True when the line is inside a `#[cfg(test)]` item.
    pub(crate) in_test: bool,
}

/// A preprocessed source file.
#[derive(Debug)]
pub(crate) struct SourceFile {
    /// Display path (workspace-relative for real files, fixture name for
    /// in-memory snippets).
    pub(crate) name: String,
    /// Preprocessed lines, index 0 = line 1.
    pub(crate) lines: Vec<Line>,
}

impl SourceFile {
    /// Preprocess `text` into per-line code/comment views.
    pub(crate) fn parse(name: &str, text: &str) -> SourceFile {
        let mut lines = split_literals(text);
        mark_test_regions(&mut lines);
        SourceFile {
            name: name.to_string(),
            lines,
        }
    }

    /// True when line `idx` (0-based) is covered by `marker` (see
    /// [`SourceFile::annotation`]).
    pub(crate) fn annotated(&self, idx: usize, marker: &str) -> bool {
        self.annotation(idx, marker).is_some()
    }

    /// The value of a `<marker> <value>` annotation covering line `idx`:
    /// the first whitespace-delimited token after the marker (e.g.
    /// `// lock-class: pagecache.shard` yields `pagecache.shard`).
    pub(crate) fn annotation_value(&self, idx: usize, marker: &str) -> Option<String> {
        let rest = self.annotation(idx, marker)?;
        let token: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
        (!token.is_empty()).then_some(token)
    }

    /// The comment text after the `marker` covering line `idx`, trimmed:
    /// a comment on the same line, on an earlier line of the same
    /// statement, or in the contiguous comment-only block directly above
    /// the statement (doc comments included). A blank line ends the block.
    ///
    /// Statement awareness matters because rustfmt freely rewraps long
    /// statements: an annotation written against one physical line must
    /// keep covering the code after the formatter splits it. A line is
    /// taken to start a statement when the code line above it is blank,
    /// comment-only, or ends with `;`, `{` or `}`.
    pub(crate) fn annotation(&self, idx: usize, marker: &str) -> Option<&str> {
        fn after<'a>(line: &'a Line, marker: &str) -> Option<&'a str> {
            let pos = line.comment.find(marker)?;
            Some(line.comment[pos + marker.len()..].trim())
        }
        let lines = &self.lines;
        if let Some(rest) = after(&lines[idx], marker) {
            return Some(rest);
        }
        // Walk back to the first line of the enclosing statement, honoring
        // annotations on any earlier line of it along the way.
        let mut start = idx;
        while start > 0 {
            let prev = lines[start - 1].code.trim();
            if prev.is_empty() || prev.ends_with(';') || prev.ends_with('{') || prev.ends_with('}')
            {
                break;
            }
            start -= 1;
            if let Some(rest) = after(&lines[start], marker) {
                return Some(rest);
            }
        }
        // Contiguous comment-only block directly above the statement.
        lines[..start]
            .iter()
            .rev()
            .take_while(|line| line.code.trim().is_empty() && !line.comment.is_empty())
            .find_map(|line| after(line, marker))
    }

    /// Extent of the item whose header is at line `start` (0-based): scans
    /// forward for the first `{` and returns the inclusive line range up
    /// to its matching `}`. Returns `None` if a `;` ends the item before
    /// any brace opens (e.g. a declaration) or the braces never close.
    pub(crate) fn item_extent(&self, start: usize) -> Option<(usize, usize)> {
        let mut depth: i64 = 0;
        let mut opened = false;
        for (i, line) in self.lines.iter().enumerate().skip(start) {
            for ch in line.code.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            return Some((start, i));
                        }
                    }
                    ';' if !opened && depth == 0 => return None,
                    _ => {}
                }
            }
        }
        None
    }

    /// Line ranges (inclusive, 0-based) of the bodies of *every*
    /// occurrence of the named function. A file may define the same method
    /// name in several impl blocks (`LruMap::len` vs `PageCache::len`);
    /// extent-aware lints must attribute each body to its own occurrence,
    /// not to whichever header happens to appear first.
    pub(crate) fn fn_extents(&self, fn_name: &str) -> Vec<(usize, usize)> {
        let needle = format!("fn {fn_name}");
        let mut out = Vec::new();
        for (i, l) in self.lines.iter().enumerate() {
            let matched = match l.code.find(&needle) {
                // Require a non-identifier char after the name so
                // `fn worker_loop` does not match `fn worker_loop_ext`.
                Some(pos) => {
                    let rest = &l.code[pos + needle.len()..];
                    !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
                }
                None => false,
            };
            if matched {
                if let Some(extent) = self.item_extent(i) {
                    out.push(extent);
                }
            }
        }
        out
    }

    /// Every function item in the file: `(name, start, end)` with the
    /// extent of each body. Declarations without a body (trait methods
    /// ending in `;`) are skipped.
    pub(crate) fn fn_items(&self) -> Vec<(String, usize, usize)> {
        let mut out = Vec::new();
        for (i, l) in self.lines.iter().enumerate() {
            let mut from = 0;
            while let Some(pos) = l.code[from..].find("fn ") {
                let abs = from + pos;
                from = abs + 3;
                // `fn` must be a standalone keyword (not `magic_fn `).
                let before = l.code[..abs].chars().next_back();
                if matches!(before, Some(c) if c.is_alphanumeric() || c == '_') {
                    continue;
                }
                let name: String = l.code[abs + 3..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.is_empty() {
                    continue;
                }
                if let Some((start, end)) = self.item_extent(i) {
                    out.push((name, start, end));
                }
                break; // one fn header per line in rustfmt'd code
            }
        }
        out
    }
}

/// Split `text` into lines while separating code from comments and
/// blanking string/char literal bodies.
fn split_literals(text: &str) -> Vec<Line> {
    #[derive(PartialEq)]
    enum Mode {
        Code,
        LineComment,
        /// Block comment with nesting depth.
        BlockComment(u32),
        /// String literal; `raw_hashes` is `Some(n)` for `r#…#"` forms.
        Str {
            raw_hashes: Option<u32>,
        },
    }

    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let mut i = 0;

    macro_rules! flush_line {
        () => {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    comment.push_str("//");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    comment.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    // Plain or byte string; raw strings are caught at the
                    // `r` below before the quote is reached.
                    code.push('"');
                    mode = Mode::Str { raw_hashes: None };
                    i += 1;
                } else if (c == 'r' || c == 'b') && !is_ident(chars.get(i.wrapping_sub(1))) {
                    // Possible raw/byte string prefix: r", br", r#", …
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') && (c == 'r' || j > i + 1) {
                        code.push('"');
                        mode = Mode::Str {
                            raw_hashes: Some(hashes),
                        };
                        i = j + 1;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime/label: a char literal is
                    // `'\…'` or `'x'`; anything else is a lifetime tick.
                    if next == Some('\\') {
                        code.push_str("''");
                        i += 3; // opening quote, backslash, escaped char
                        while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                            i += 1;
                        }
                        i += 1; // closing quote
                    } else if chars.get(i + 2) == Some(&'\'') {
                        code.push_str("''");
                        i += 3;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    comment.push_str("/*");
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    comment.push_str("*/");
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        i += 2; // skip escaped char (incl. \" and \\)
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Some(n) => {
                    if c == '"' && (1..=n as usize).all(|k| chars.get(i + k) == Some(&'#')) {
                        code.push('"');
                        mode = Mode::Code;
                        i += 1 + n as usize;
                    } else {
                        i += 1;
                    }
                }
            },
        }
    }
    flush_line!();
    lines
}

fn is_ident(c: Option<&char>) -> bool {
    matches!(c, Some(c) if c.is_alphanumeric() || *c == '_')
}

/// Mark lines inside `#[cfg(test)]` items. The attribute arms a pending
/// flag; the next `{` opens a test region that closes with its matching
/// `}`. A `;` at the attribute's depth cancels the pending flag (the
/// attribute decorated a braceless item).
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending: Option<i64> = None;
    let mut regions: Vec<i64> = Vec::new();
    for line in lines.iter_mut() {
        let mut in_test = !regions.is_empty();
        if line.code.contains("cfg(test)") || line.code.contains("cfg(all(test") {
            pending = Some(depth);
        }
        for ch in line.code.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    if pending.take().is_some() {
                        regions.push(depth);
                    }
                }
                '}' => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                ';' if pending == Some(depth) => {
                    pending = None;
                }
                _ => {}
            }
            if !regions.is_empty() {
                in_test = true;
            }
        }
        line.in_test = in_test;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked() {
        let f = SourceFile::parse("t.rs", "let x = \"Ordering::Relaxed // no\";");
        assert_eq!(f.lines[0].code, "let x = \"\";");
        assert!(f.lines[0].comment.is_empty());
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let j = r#\"{ \"k\": \"unsafe { }\" }\"#; let b = b\"//x\";";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.lines[0].code, "let j = \"\"; let b = b\"\";");
    }

    #[test]
    fn comments_are_captured() {
        let f = SourceFile::parse("t.rs", "foo(); // relaxed-ok: counter only\nbar();");
        assert_eq!(f.lines[0].code, "foo(); ");
        assert!(f.lines[0].comment.contains("relaxed-ok:"));
        assert_eq!(f.lines[1].code, "bar();");
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::parse("t.rs", "a(); /* start\n unsafe middle\n end */ b();");
        assert_eq!(f.lines[0].code, "a(); ");
        assert!(f.lines[1].code.trim().is_empty());
        assert!(f.lines[1].comment.contains("unsafe middle"));
        assert_eq!(f.lines[2].code.trim(), "b();");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = SourceFile::parse(
            "t.rs",
            "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; }",
        );
        let code = &f.lines[0].code;
        assert!(code.contains("<'a>"), "lifetime kept: {code}");
        assert!(code.contains("''"), "char literal blanked: {code}");
        // The quote inside the char literal must not open a string.
        assert!(!code.contains('"'), "no stray quote: {code}");
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn more() {}";
        let f = SourceFile::parse("t.rs", src);
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, false, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item_is_cancelled() {
        let src = "#[cfg(test)]\nuse std::fmt;\nfn f() { body(); }";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.lines.iter().all(|l| !l.in_test));
    }

    #[test]
    fn annotation_same_line_and_block_above() {
        let src =
            "x(); // panic-ok: bounded\n// SAFETY: exclusive owner\n// more words\ny();\n\nz();";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.annotated(0, "panic-ok:"));
        assert!(f.annotated(3, "SAFETY:"));
        // Blank line breaks the comment block.
        assert!(!f.annotated(5, "SAFETY:"));
    }

    #[test]
    fn annotation_covers_rustfmt_split_statements() {
        // An annotation above (or on the first line of) a statement keeps
        // covering it after rustfmt rewraps the statement across lines.
        let src = "// relaxed-ok: counter\nlet x = a\n    .load(R);\nb.store(\n    1,\n    R,\n);";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.annotated(2, "relaxed-ok:"), "block above split statement");
        // The second statement starts after the `;` — not covered.
        assert!(!f.annotated(5, "relaxed-ok:"));
        // Trailing comment on an earlier line of the same statement.
        let src2 = "c.store( // relaxed-ok: counter\n    1,\n    R,\n);";
        let f2 = SourceFile::parse("t.rs", src2);
        assert!(f2.annotated(2, "relaxed-ok:"));
    }

    #[test]
    fn fn_extent_brace_matching() {
        let src = "fn a() {\n  if x { y(); }\n}\nfn ab() {\n  z();\n}";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.fn_extents("a"), vec![(0, 2)]);
        assert_eq!(f.fn_extents("ab"), vec![(3, 5)]);
        assert_eq!(f.fn_extents("missing"), vec![]);
    }
}
