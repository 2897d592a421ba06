//! Lint 12, `unreached-pub`: no `pub` item without a caller (DESIGN.md
//! §7). rustc's `dead_code` covers every item that is not `pub`; this
//! covers the rest with one identifier count over every scanned file.
//!
//! A *definition* is a non-test `pub fn`, `struct`, `enum`, `trait`,
//! `type`, `const` or `static` in `crates/*/src`, or a variant of a
//! `pub enum` there. A *use* is its name as a code token in a file that is
//! not under a `tests/` or `benches/` directory, outside `#[cfg(test)]`
//! code, `use` declarations, the self type of `impl` headers, the names
//! definitions introduce and the item's own extent (comments and strings
//! are not code). A definition with no use is flagged unless annotated
//! `// api-ok: <reason>`, where the reason names the paper section the
//! item reproduces (`§…`) or the integration test that reads it
//! (`tests/…`).
//!
//! Blind spots, by design: the count is by name, so a name shared with a
//! live item counts as used (`BlockAllocator::alloc` was hidden by
//! `BufferPool::alloc`), and trait methods are never definitions, so they
//! count as used through their impls.

use std::collections::HashMap;

use crate::lint::{Diagnostic, Lint};
use crate::scan::SourceFile;

/// The item keywords a governed `pub` definition may carry.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "type", "const", "static"];

/// Keywords whose next identifier is a name being defined, not a use.
const DEF_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
];

/// Words that may stand between a definition keyword and its name, or
/// between `pub` and the item keyword.
const QUALIFIERS: [&str; 5] = ["mut", "unsafe", "async", "extern", "const"];

/// One governed `pub` definition: its file, its line span and its name.
struct Def<'a> {
    file: usize,
    line: usize,
    end: usize,
    kind: &'static str,
    name: &'a str,
}

/// Run the lint over every scanned file.
pub(crate) fn lint_unreached_pub(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let variants: Vec<Variants> = files.iter().map(variant_lines).collect();
    let counted: Vec<Vec<Vec<&str>>> = files
        .iter()
        .zip(&variants)
        .map(|(file, variants)| counted_tokens(file, variants))
        .collect();
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for (file, lines) in files.iter().zip(&counted) {
        if !is_test_file(&file.name) {
            for token in lines.iter().flatten() {
                *counts.entry(token).or_default() += 1;
            }
        }
    }
    let mut defs = Vec::new();
    for (i, file) in files.iter().enumerate() {
        if is_governed(&file.name) {
            definitions(i, file, &variants[i], &mut defs);
        }
    }
    for def in defs {
        let file = &files[def.file];
        let own = counted[def.file][def.line..=def.end]
            .iter()
            .flatten()
            .filter(|t| **t == def.name)
            .count();
        let used = counts.get(def.name).is_some_and(|&n| n > own);
        let excused = file
            .annotation(def.line, "api-ok:")
            .is_some_and(|reason| reason.contains('§') || reason.contains("tests/"));
        if used || excused {
            continue;
        }
        diags.push(Diagnostic {
            file: file.name.clone(),
            line: def.line + 1,
            lint: Lint::UnreachedPub,
            message: format!(
                "pub {} `{}` has no use outside tests, `use` lines and its own \
                 definition — delete it, or annotate `// api-ok: <the paper's \
                 § it reproduces, or the tests/ file that reads it>`",
                def.kind, def.name
            ),
        });
    }
}

/// Files whose `pub` items are governed: `crates/<name>/src/…`.
fn is_governed(name: &str) -> bool {
    let parts: Vec<&str> = name.split('/').collect();
    parts.len() > 3 && parts[0] == "crates" && parts[2] == "src"
}

/// Files in which nothing counts as a use.
fn is_test_file(name: &str) -> bool {
    name.split('/').any(|c| c == "tests" || c == "benches")
}

/// Per line, the tokens that count as uses: none on a test line or a
/// `use` declaration; elsewhere every identifier except the names that
/// definitions introduce (items and enum variants) and the self type of
/// an `impl` header.
fn counted_tokens<'a>(file: &'a SourceFile, variants: &Variants) -> Vec<Vec<&'a str>> {
    let mut in_use = false;
    let mut out = Vec::with_capacity(file.lines.len());
    for (idx, line) in file.lines.iter().enumerate() {
        in_use |= strip_vis(&line.code).starts_with("use ");
        out.push(if in_use || line.in_test {
            Vec::new()
        } else {
            tokens(&line.code, variants[idx].map(|(pos, _)| pos))
        });
        in_use &= !line.code.contains(';');
    }
    out
}

/// `code` without leading whitespace and a leading `pub` / `pub(…)`.
fn strip_vis(code: &str) -> &str {
    let code = code.trim_start();
    match code.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.split_once(')').map_or(rest, |(_, r)| r),
        Some(rest) if rest.starts_with(' ') => rest,
        _ => code,
    }
    .trim_start()
}

/// The tokens of one line of code that count as uses (see
/// [`counted_tokens`]); `variant` is the offset of the variant name this
/// line defines, if any.
fn tokens(code: &str, variant: Option<usize>) -> Vec<&str> {
    let self_type = impl_self_type(code);
    let mut out = Vec::new();
    let mut defining: Option<usize> = None;
    for (pos, word) in words(code) {
        let after_def = defining.is_some_and(|end| code[end..pos].trim().is_empty());
        let before = code[..pos].chars().next_back();
        let keyword = DEF_KEYWORDS.contains(&word) && !matches!(before, Some('*' | '\''));
        if keyword || (after_def && QUALIFIERS.contains(&word)) {
            defining = Some(pos + word.len());
        } else if after_def {
            defining = None;
        } else if Some(word) != self_type && Some(pos) != variant {
            defining = None;
            out.push(word);
        }
    }
    out
}

/// The identifiers of `code` with their byte offsets (number literals
/// excluded).
fn words(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    std::iter::from_fn(move || loop {
        let start = from + code[from..].find(ident)?;
        let len = code[start..]
            .find(|c| !ident(c))
            .unwrap_or(code.len() - start);
        from = start + len;
        let word = &code[start..from];
        if !word.starts_with(|c: char| c.is_ascii_digit()) {
            return Some((start, word));
        }
    })
}

/// On an `impl` header line, the name of the type being implemented: the
/// last path segment of the type after `for` (or after the generics when
/// there is no `for`), before its own generics.
fn impl_self_type(code: &str) -> Option<&str> {
    let code = code.trim_start();
    let rest = code
        .strip_prefix("unsafe ")
        .unwrap_or(code)
        .strip_prefix("impl")?;
    if !rest.starts_with([' ', '<']) {
        return None;
    }
    let rest = skip_generics(rest);
    let target = rest.rsplit(" for ").next()?;
    let head = target.trim_start().split(['<', ' ', '{']).next()?;
    head.rsplit([':', '&']).next().filter(|s| !s.is_empty())
}

/// `s` after a leading `<…>` parameter list, if it has one. The `>` of a
/// `->` in a bound closes nothing.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let (mut depth, mut prev) = (0usize, ' ');
    for (i, c) in s.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return &s[i + 1..];
                }
            }
            _ => {}
        }
        prev = c;
    }
    ""
}

/// Per line, the enum variant it defines, as the name's offset and the
/// name.
type Variants<'a> = Vec<Option<(usize, &'a str)>>;

/// The [`Variants`] of every enum in the file: each line at the top level
/// of an enum body that starts with an identifier.
fn variant_lines(file: &SourceFile) -> Variants<'_> {
    let mut out = vec![None; file.lines.len()];
    for (idx, line) in file.lines.iter().enumerate() {
        if !words(&line.code).any(|(_, w)| w == "enum") {
            continue;
        }
        let Some((start, end)) = file.item_extent(idx) else {
            continue;
        };
        let mut depth = 0i64;
        for (i, line) in file.lines.iter().enumerate().take(end + 1).skip(start) {
            if depth == 1 {
                out[i] = words(&line.code)
                    .next()
                    .filter(|(pos, _)| line.code[..*pos].trim().is_empty());
            }
            for c in line.code.chars() {
                match c {
                    '{' | '(' | '[' => depth += 1,
                    '}' | ')' | ']' => depth -= 1,
                    _ => {}
                }
            }
        }
    }
    out
}

/// Every governed `pub` definition in `file`: items, and the variants of
/// each `pub enum`.
fn definitions<'a>(
    fi: usize,
    file: &'a SourceFile,
    variants: &Variants<'a>,
    out: &mut Vec<Def<'a>>,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(rest) = line.code.trim_start().strip_prefix("pub ") else {
            continue;
        };
        let words: Vec<&str> = words(rest)
            .map(|(_, w)| w)
            .filter(|w| *w == "const" || !QUALIFIERS.contains(w))
            .take(3)
            .collect();
        let (keyword, name) = match words[..] {
            ["const", "fn", name, ..] => ("fn", name),
            [keyword, name, ..] => (keyword, name),
            _ => continue,
        };
        let Some(&kind) = ITEM_KEYWORDS.iter().find(|k| **k == keyword) else {
            continue;
        };
        let end = item_end(file, idx);
        out.push(Def {
            file: fi,
            line: idx,
            end,
            kind,
            name,
        });
        if kind == "enum" {
            for (i, variant) in variants.iter().enumerate().take(end + 1).skip(idx) {
                if let Some((_, name)) = *variant {
                    let kind = "enum variant";
                    out.push(Def {
                        file: fi,
                        line: i,
                        end: i,
                        kind,
                        name,
                    });
                }
            }
        }
    }
}

/// The last line of the item whose header is on line `idx`: its closing
/// brace, or the first `;` when it has no body.
fn item_end(file: &SourceFile, idx: usize) -> usize {
    match file.item_extent(idx) {
        Some((_, end)) => end,
        None => (idx..file.lines.len())
            .find(|&i| file.lines[i].code.contains(';'))
            .unwrap_or(idx),
    }
}
