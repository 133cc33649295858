//! fusion-analyze: token-accurate static analysis for the workspace's
//! determinism and robustness invariants.
//!
//! Every byte-identity guarantee in this reproduction — golden stats,
//! memo copies, crash-resume replay — rests on source-level
//! invariants (deterministic maps, no wall-clock in sim logic, saturating
//! casts, ordered iteration, consistent lock order). This crate checks
//! them mechanically: a lightweight lexer ([`lexer`]) feeds six passes
//! ([`passes`]) over every `crates/*/src/**/*.rs` file, producing
//! [`Diagnostic`]s with stable ordering and a JSON rendering suitable for
//! CI artifacts.
//!
//! Suppression is two-tier:
//! * a per-site `lint:allow-<rule>` marker in a comment on the offending
//!   line or up to two lines above (markers inside string literals do
//!   *not* count — only real comments);
//! * a shrink-only allowlist (`crates/analyze/lint.allow`) of
//!   `<rule> <path> <reason>` lines for findings that predate the lint.
//!   Entries that no longer match anything are themselves findings, so
//!   the list can only shrink.
//!
//! Exit-code contract (enforced by `sim lint` and CI): 0 clean, 1
//! findings or stale allowlist entries, 2 usage or I/O error.

pub mod lexer;
pub mod passes;

use lexer::{Comment, Token};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One source file, lexed and annotated, as seen by every pass.
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    pub text: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
    /// `lint:allow-<rule>` markers: (1-based line, rule id).
    pub markers: Vec<(usize, String)>,
    /// Binary target (`src/bin/*` or `src/main.rs`): relaxed rules.
    pub is_bin: bool,
    /// Byte offset of each line start, for snippet extraction.
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lexes and annotates `text` under workspace-relative path `rel`.
    pub fn parse(rel: String, text: String) -> SourceFile {
        let lexed = lexer::lex(&text);
        let in_test = lexer::test_regions(&text, &lexed.tokens);
        let markers = extract_markers(&text, &lexed.comments);
        let is_bin = rel.contains("/bin/") || rel.ends_with("/main.rs");
        let mut line_starts = vec![0usize];
        line_starts.extend(
            text.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        SourceFile {
            rel,
            text,
            tokens: lexed.tokens,
            comments: lexed.comments,
            in_test,
            markers,
            is_bin,
            line_starts,
        }
    }

    /// The source text of token `i`.
    pub fn tok(&self, i: usize) -> &str {
        let t = &self.tokens[i];
        &self.text[t.start..t.end]
    }

    /// The trimmed text of 1-based line `line` (empty if out of range).
    pub fn line_text(&self, line: usize) -> &str {
        let Some(&start) = self.line_starts.get(line.wrapping_sub(1)) else {
            return "";
        };
        let end = self
            .line_starts
            .get(line)
            .map_or(self.text.len(), |&e| e.saturating_sub(1));
        self.text[start..end].trim()
    }

    /// Whether a `lint:allow-<rule>` marker covers `line` (marker on the
    /// line itself or up to two lines above).
    pub fn suppressed(&self, rule: &str, line: usize) -> bool {
        self.markers
            .iter()
            .any(|(ml, mr)| mr == rule && *ml <= line && *ml + 2 >= line)
    }
}

/// Pulls `lint:allow-<rule>` markers out of comment spans. Matching only
/// comment text means a marker mentioned in a string literal (for
/// example, in this crate's own sources or docs) never suppresses
/// anything.
fn extract_markers(text: &str, comments: &[Comment]) -> Vec<(usize, String)> {
    const NEEDLE: &str = "lint:allow-";
    let mut out = Vec::new();
    for c in comments {
        let body = &text[c.start..c.end];
        let mut from = 0usize;
        while let Some(pos) = body[from..].find(NEEDLE) {
            let at = from + pos + NEEDLE.len();
            let rule: String = body[at..]
                .chars()
                .take_while(|ch| ch.is_ascii_lowercase() || *ch == '-')
                .collect();
            if !rule.is_empty() {
                let line = c.line + body[..from + pos].bytes().filter(|&b| b == b'\n').count();
                out.push((line, rule));
            }
            from = at;
        }
    }
    out
}

/// One finding. Ordered by (file, line, col, rule) for stable output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub col: usize,
    /// Trimmed text of the offending line.
    pub snippet: String,
    /// One-line fix hint.
    pub hint: &'static str,
}

impl Diagnostic {
    fn sort_key(&self) -> (&str, usize, usize, &str) {
        (&self.file, self.line, self.col, self.rule)
    }
}

/// A pass inspects the whole workspace at once (so inter-procedural
/// passes like `lock-order` can see every file) and appends findings.
/// Single-file passes simply loop over `files`.
pub trait Pass {
    /// Stable rule id, also the `--rule` / `lint:allow-*` name.
    fn id(&self) -> &'static str;
    /// One-line description for `--help` and reports.
    fn description(&self) -> &'static str;
    fn run(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>);
}

/// One allowlist entry: `<rule> <path> <reason…>`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub reason: String,
}

/// Analysis result, renderable as text or JSON.
pub struct Report {
    /// Findings that survived markers and the allowlist, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Count of findings absorbed by allowlist entries.
    pub allowlisted: usize,
    /// Allowlist entries that matched nothing (must be deleted).
    pub stale: Vec<AllowEntry>,
    /// Rule ids that ran, sorted.
    pub rules: Vec<&'static str>,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    /// Clean ⇔ exit 0: no findings and no stale allowlist entries.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale.is_empty()
    }

    /// Human-readable rendering for terminal use.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(s, "error[{}]: {}:{}:{}", d.rule, d.file, d.line, d.col);
            let _ = writeln!(s, "  | {}", d.snippet);
            let _ = writeln!(s, "  = help: {}", d.hint);
        }
        for e in &self.stale {
            let _ = writeln!(
                s,
                "error[stale-allow]: lint.allow entry matches nothing: {} {} ({})",
                e.rule, e.path, e.reason
            );
            let _ = writeln!(
                s,
                "  = help: the allowlist can only shrink; delete the line"
            );
        }
        let _ = writeln!(
            s,
            "{} file(s), {} rule(s): {} finding(s), {} allowlisted, {} stale allow(s)",
            self.files,
            self.rules.len(),
            self.diagnostics.len(),
            self.allowlisted,
            self.stale.len()
        );
        s
    }

    /// Machine-readable rendering: one diagnostic per line, stable order,
    /// so goldens diff cleanly.
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"version\": 1,");
        let _ = writeln!(s, "  \"files\": {},", self.files);
        let rules: Vec<String> = self.rules.iter().map(|r| json_str(r)).collect();
        let _ = writeln!(s, "  \"rules\": [{}],", rules.join(", "));
        let _ = writeln!(s, "  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            let comma = if i + 1 < self.diagnostics.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                s,
                "    {{\"rule\": {}, \"severity\": \"error\", \"file\": {}, \"line\": {}, \"col\": {}, \"snippet\": {}, \"hint\": {}}}{}",
                json_str(d.rule),
                json_str(&d.file),
                d.line,
                d.col,
                json_str(&d.snippet),
                json_str(d.hint),
                comma
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"allowlisted\": {},", self.allowlisted);
        let _ = writeln!(s, "  \"stale\": [");
        for (i, e) in self.stale.iter().enumerate() {
            let comma = if i + 1 < self.stale.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"rule\": {}, \"path\": {}, \"reason\": {}}}{}",
                json_str(&e.rule),
                json_str(&e.path),
                json_str(&e.reason),
                comma
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"clean\": {}", self.clean());
        let _ = writeln!(s, "}}");
        s
    }
}

/// JSON string literal with escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses allowlist text. Blank lines and `#` comments are skipped; each
/// entry is `<rule> <path> <reason…>`. Malformed lines are an error (the
/// allowlist is a contract, not a suggestion).
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(reason)) => out.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                reason: reason.trim().to_string(),
            }),
            _ => {
                return Err(format!(
                    "lint.allow:{}: expected `<rule> <path> <reason>`, got: {}",
                    n + 1,
                    line
                ))
            }
        }
    }
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {}", dir.display(), e))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {}", dir.display(), e))?;
        paths.push(entry.path());
    }
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Loads every `crates/*/src/**/*.rs` file under `root`, sorted by
/// workspace-relative path.
pub fn load_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {}", crates_dir.display(), e))?;
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {}", crates_dir.display(), e))?;
        let p = entry.path();
        if p.is_dir() {
            crate_dirs.push(p);
        }
    }
    crate_dirs.sort();
    let mut paths: Vec<PathBuf> = Vec::new();
    for cd in crate_dirs {
        let src = cd.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut paths)?;
        }
    }
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("read {}: {}", p.display(), e))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile::parse(rel, text));
    }
    Ok(files)
}

/// Runs the passes over pre-loaded `files`, applying `allow` entries.
/// `rule_filter` restricts to one pass (unknown id is an error → exit 2).
pub fn analyze_files(
    files: &[SourceFile],
    allow: &[AllowEntry],
    rule_filter: Option<&str>,
) -> Result<Report, String> {
    let all = passes::all_passes();
    if let Some(r) = rule_filter {
        if !all.iter().any(|p| p.id() == r) {
            let known: Vec<&str> = all.iter().map(|p| p.id()).collect();
            return Err(format!(
                "unknown rule `{}` (known: {})",
                r,
                known.join(", ")
            ));
        }
    }
    let mut rules: Vec<&'static str> = Vec::new();
    let mut raw: Vec<Diagnostic> = Vec::new();
    for pass in &all {
        if rule_filter.is_some_and(|r| r != pass.id()) {
            continue;
        }
        rules.push(pass.id());
        pass.run(files, &mut raw);
    }
    raw.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));

    // Apply the allowlist; entries relevant to the active rules that match
    // nothing are stale. With a --rule filter, entries for other rules are
    // out of scope and never reported stale.
    let mut matched = vec![false; allow.len()];
    let mut diagnostics = Vec::new();
    let mut allowlisted = 0usize;
    for d in raw {
        let hit = allow
            .iter()
            .enumerate()
            .find(|(_, e)| e.rule == d.rule && e.path == d.file);
        match hit {
            Some((i, _)) => {
                matched[i] = true;
                allowlisted += 1;
            }
            None => diagnostics.push(d),
        }
    }
    let stale: Vec<AllowEntry> = allow
        .iter()
        .zip(&matched)
        .filter(|&(e, &m)| !m && rules.contains(&e.rule.as_str()))
        .map(|(e, _)| e.clone())
        .collect();

    Ok(Report {
        diagnostics,
        allowlisted,
        stale,
        rules,
        files: files.len(),
    })
}

/// End-to-end convenience: load the workspace at `root`, read its
/// allowlist (`crates/analyze/lint.allow`, optional), run the passes.
pub fn analyze(root: &Path, rule_filter: Option<&str>) -> Result<Report, String> {
    let files = load_workspace(root)?;
    let allow_path = root.join("crates/analyze/lint.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("read {}: {}", allow_path.display(), e)),
    };
    analyze_files(&files, &allow, rule_filter)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_come_from_comments_not_strings() {
        let src = "let a = \"lint:allow-unwrap\";\n// lint:allow-std-map reason\nlet b = 1;\n/* lint:allow-unwrap\n   lint:allow-wall-clock */\n";
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), src.into());
        assert_eq!(
            f.markers,
            vec![
                (2, "std-map".to_string()),
                (4, "unwrap".to_string()),
                (5, "wall-clock".to_string()),
            ]
        );
        assert!(f.suppressed("std-map", 2));
        assert!(f.suppressed("std-map", 4)); // two lines below
        assert!(!f.suppressed("std-map", 5));
        assert!(!f.suppressed("unwrap", 1)); // string marker ignored
    }

    #[test]
    fn line_text_and_bin_detection() {
        let f = SourceFile::parse(
            "crates/x/src/bin/tool.rs".into(),
            "fn main() {\n    let x = 1;\n}\n".into(),
        );
        assert!(f.is_bin);
        assert_eq!(f.line_text(2), "let x = 1;");
        assert_eq!(f.line_text(99), "");
        let lib = SourceFile::parse("crates/x/src/lib.rs".into(), String::new());
        assert!(!lib.is_bin);
    }

    #[test]
    fn allowlist_parse_and_reject() {
        let ok = parse_allowlist("# comment\n\nunwrap crates/x/src/lib.rs infallible write\n");
        let entries = ok.expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "unwrap");
        assert_eq!(entries[0].reason, "infallible write");
        assert!(parse_allowlist("unwrap crates/x/src/lib.rs\n").is_err());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let files: Vec<SourceFile> = Vec::new();
        assert!(analyze_files(&files, &[], Some("bogus")).is_err());
        assert!(analyze_files(&files, &[], Some("unwrap")).is_ok());
    }

    #[test]
    fn stale_allow_entries_are_findings() {
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), "fn f() {}\n".into());
        let allow = parse_allowlist("unwrap crates/x/src/lib.rs no longer fires\n").expect("ok");
        let report = analyze_files(&[f], &allow, None).expect("runs");
        assert_eq!(report.stale.len(), 1);
        assert!(!report.clean());
        // Filtered to a different rule, the entry is out of scope.
        let f2 = SourceFile::parse("crates/x/src/lib.rs".into(), "fn f() {}\n".into());
        let report = analyze_files(&[f2], &allow, Some("std-map")).expect("runs");
        assert!(report.stale.is_empty());
    }
}
