//! Every Markdown file a Rust source names by path resolves from the
//! repository root, so no doc comment, usage text or test points readers
//! at a document that is not in the tree.

use std::path::{Path, PathBuf};

/// The source trees scanned, relative to the repository root.
const TREES: &[&str] = &["crates", "src", "examples", "tests"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every Markdown path in `text`, with its byte offset: a maximal run of
/// path characters that ends in the extension, is not followed by another
/// identifier character, and names something before the extension.
fn markdown_paths(text: &str) -> Vec<(usize, &str)> {
    let is_path = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    let mut found = Vec::new();
    for (at, ext) in text.match_indices(".md") {
        let end = at + ext.len();
        if text[end..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        let start = text[..at]
            .char_indices()
            .rev()
            .find(|&(_, c)| !is_path(c))
            .map_or(0, |(i, c)| i + c.len_utf8());
        if text[start..at].contains(|c: char| c.is_ascii_alphanumeric()) {
            found.push((start, &text[start..end]));
        }
    }
    found
}

#[test]
fn the_scanner_finds_paths_and_skips_non_paths() {
    let text = "see `EXPERIMENTS.md` §5, crates/engine/src/README.md; x.mdx, y.md_z, \".md\"";
    let paths: Vec<&str> = markdown_paths(text).into_iter().map(|(_, p)| p).collect();
    assert_eq!(paths, ["EXPERIMENTS.md", "crates/engine/src/README.md"]);
}

#[test]
fn every_markdown_path_in_the_sources_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in TREES {
        rust_files(&root.join(tree), &mut files);
    }
    assert!(files.len() > 100, "scanned only {} source files", files.len());
    let mut dangling = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source is UTF-8");
        for (at, path) in markdown_paths(&text) {
            if !root.join(path).exists() {
                let line = text[..at].matches('\n').count() + 1;
                let shown = file.strip_prefix(root).unwrap_or(file).display();
                dangling.push(format!("{shown}:{line}: {path}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "paths that do not resolve from the root:\n{}",
        dangling.join("\n")
    );
}
