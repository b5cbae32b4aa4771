//! Workspace loading: file discovery, lexing, and `#[cfg(test)]` masking.
//!
//! Every `.rs` file under the scanned roots is read and lexed **once**;
//! rules then iterate the shared token streams. Paths are stored relative
//! to the workspace root with `/` separators so findings (and their JSON
//! form) are stable across machines.

use std::path::{Path, PathBuf};

use crate::lexer::{self, Tok, TokKind};

/// Directory names the walker never descends into, wherever it is rooted:
/// build artifacts (`target`), vendored third-party crates (`vendor`),
/// lint test fixtures (`fixtures` — deliberately violating files), and
/// hidden directories. A stray build artifact or vendored crate can never
/// produce findings.
const SKIPPED_DIRS: &[&str] = &["target", "vendor", "fixtures"];

/// Recursively collects `.rs` files under `dir`, sorted by path for
/// stable output, skipping `SKIPPED_DIRS` subtrees.
pub fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let skip = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_none_or(|n| SKIPPED_DIRS.contains(&n) || n.starts_with('.'));
            if !skip {
                files.extend(rs_files(&path));
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// One loaded, lexed source file.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The raw source text.
    pub text: String,
    /// The token stream (see [`lexer::lex`]).
    pub toks: Vec<Tok>,
    /// `in_test[i]` is true when token `i` belongs to an item guarded by
    /// `#[cfg(test)]` (the attribute itself included).
    pub in_test: Vec<bool>,
}

impl SourceFile {
    /// Lexes `text` into a [`SourceFile`].
    pub fn new(rel: String, text: String) -> Self {
        let toks = lexer::lex(&text);
        let in_test = test_mask(&text, &toks);
        Self {
            rel,
            text,
            toks,
            in_test,
        }
    }

    /// The source text of token `i`.
    pub fn tok_text(&self, i: usize) -> &str {
        let t = &self.toks[i];
        &self.text[t.start..t.end]
    }

    /// True when token `i` is an identifier spelling `name`.
    pub fn is_ident(&self, i: usize, name: &str) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && self.tok_text(i) == name)
    }

    /// True when token `i` is the punctuation byte `p`.
    pub fn is_punct(&self, i: usize, p: u8) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && self.text.as_bytes()[t.start] == p)
    }

    /// Indices of non-comment tokens, optionally excluding
    /// `#[cfg(test)]` regions.
    pub fn code_indices(&self, include_tests: bool) -> Vec<usize> {
        (0..self.toks.len())
            .filter(|&i| !self.toks[i].kind.is_comment())
            .filter(|&i| include_tests || !self.in_test[i])
            .collect()
    }
}

/// Computes the `#[cfg(test)]` mask: for every `#[cfg(test)]` attribute,
/// the attribute tokens and the item that follows (to its matching
/// closing brace, or to the first `;` for braceless items) are marked.
/// Comments and literals are tokens, so brace counting is exact.
fn test_mask(text: &str, toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let at = |i: usize, p: u8| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && text.as_bytes()[t.start] == p)
    };
    let ident = |i: usize, name: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && &text[t.start..t.end] == name)
    };
    let mut i = 0;
    while i < toks.len() {
        let is_attr = at(i, b'#')
            && at(i + 1, b'[')
            && ident(i + 2, "cfg")
            && at(i + 3, b'(')
            && ident(i + 4, "test")
            && at(i + 5, b')')
            && at(i + 6, b']');
        if !is_attr {
            i += 1;
            continue;
        }
        // Walk to the end of the guarded item: first `;` before any brace,
        // or the brace matching the first `{`.
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut opened = false;
        while j < toks.len() {
            if at(j, b'{') {
                depth += 1;
                opened = true;
            } else if at(j, b'}') {
                depth = depth.saturating_sub(1);
                if opened && depth == 0 {
                    break;
                }
            } else if at(j, b';') && !opened {
                break;
            }
            j += 1;
        }
        let end = (j + 1).min(toks.len());
        for m in &mut mask[i..end] {
            *m = true;
        }
        i = end;
    }
    mask
}

/// A loaded workspace: the root plus every lexed source file under the
/// scanned subtrees (`crates/`, `examples/`, `tests/`).
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Loaded files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// The subtrees scanned relative to the root.
    pub const SCAN_ROOTS: &'static [&'static str] = &["crates", "examples", "tests"];

    /// Loads and lexes every `.rs` file under the scan roots. Unreadable
    /// files are skipped (the build would fail on them long before lint).
    pub fn load(root: &Path) -> Self {
        let mut files = Vec::new();
        for sub in Self::SCAN_ROOTS {
            for path in rs_files(&root.join(sub)) {
                let Ok(text) = std::fs::read_to_string(&path) else {
                    continue;
                };
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push(SourceFile::new(rel, text));
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Self {
            root: root.to_path_buf(),
            files,
        }
    }

    /// The loaded file with exactly this relative path, if any.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "
fn good() -> Option<u32> { Some(1) }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = good().unwrap();
        assert_eq!(v, 1);
    }
}
";
        let f = SourceFile::new("x.rs".into(), src.into());
        let nontest: Vec<&str> = f
            .code_indices(false)
            .into_iter()
            .map(|i| f.tok_text(i))
            .collect();
        assert!(nontest.contains(&"good"));
        assert!(!nontest.contains(&"unwrap"));
        let all: Vec<&str> = f
            .code_indices(true)
            .into_iter()
            .map(|i| f.tok_text(i))
            .collect();
        assert!(all.contains(&"unwrap"));
    }

    #[test]
    fn cfg_test_on_braceless_items_stops_at_the_semicolon() {
        let src =
            "#[cfg(test)] use std::collections::HashMap;\nfn after() { let _ = q.unwrap(); }\n";
        let f = SourceFile::new("x.rs".into(), src.into());
        let nontest: Vec<&str> = f
            .code_indices(false)
            .into_iter()
            .map(|i| f.tok_text(i))
            .collect();
        assert!(!nontest.contains(&"HashMap"));
        assert!(nontest.contains(&"unwrap"));
    }

    #[test]
    fn walker_skips_target_vendor_and_fixtures() {
        let dir = std::env::temp_dir().join(format!("vc-lint-walk-{}", std::process::id()));
        for sub in ["src", "target/debug", "vendor/dep/src", "tests/fixtures/f"] {
            std::fs::create_dir_all(dir.join(sub)).unwrap();
        }
        std::fs::write(dir.join("src/lib.rs"), "pub fn a() {}").unwrap();
        std::fs::write(dir.join("target/debug/gen.rs"), "fn b() {}").unwrap();
        std::fs::write(dir.join("vendor/dep/src/lib.rs"), "fn c() {}").unwrap();
        std::fs::write(dir.join("tests/fixtures/f/bad.rs"), "fn d() {}").unwrap();
        let files = rs_files(&dir);
        assert_eq!(files.len(), 1);
        assert!(files[0].ends_with("src/lib.rs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
