//! `nondet-iter`: unordered iteration over Fx containers feeding ordered
//! output.
//!
//! Invariant (PRs 2/6): `FxHashMap`/`FxHashSet` iterate in a seed-stable
//! but *insertion-order-dependent* order. Iterating one into anything
//! order-sensitive (a report line, a Vec that is later compared, a
//! digest that isn't explicitly order-insensitive) silently couples
//! output bytes to incidental insertion history. Sites must either sort
//! (`fusion_types::sorted_entries` / `sorted_keys`) or consume the
//! iterator order-insensitively.
//!
//! Detection is name-based and conservative: a container name is known
//! to be Fx-typed when the file declares it as one (`name: FxHashMap<…>`
//! annotation on a let/param/field, or `name = FxHashMap::default()`).
//! An iteration site over a known name is *sanctioned* — not flagged —
//! when its enclosing statement (for a `for` loop: header plus body)
//! also contains an order-insensitive consumer: a reduction (`sum`/
//! `count`/`min`/`max`/`all`/`any`/`len`/`retain`/`fold` is *not*
//! included — folds are order-sensitive),
//! a `sort*` call, the `sorted_entries`/`sorted_keys` helpers, or a
//! `collect` into an unordered/ordered-by-key container (`FxHashMap`,
//! `FxHashSet`, `BTreeMap`, `BTreeSet`).

use super::{diag, functions, is_ident, matching_brace, stmt_end, t};
use crate::{Diagnostic, Pass, SourceFile};
use fusion_types::FxHashSet;

/// Home of the sanctioned sorted-collect helpers.
const EXEMPT: &str = "crates/types/src/hash.rs";

const HINT: &str = "Fx iteration order is insertion-dependent; sort via \
fusion_types::sorted_entries/sorted_keys or consume order-insensitively (reductions, \
collect into a keyed container)";

/// Iterator-producing methods whose order reaches the consumer.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Consumers that make iteration order irrelevant.
const ORDER_FREE: [&str; 14] = [
    "sum",
    "count",
    "min",
    "max",
    "all",
    "any",
    "len",
    "retain",
    "sorted_entries",
    "sorted_keys",
    "FxHashMap",
    "FxHashSet",
    "BTreeMap",
    "BTreeSet",
];

pub struct NondetIter;

impl Pass for NondetIter {
    fn id(&self) -> &'static str {
        "nondet-iter"
    }

    fn description(&self) -> &'static str {
        "unordered FxHashMap/FxHashSet iteration feeding ordered output"
    }

    fn run(&self, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
        for f in files {
            if f.rel == EXEMPT {
                continue;
            }
            let fx = fx_decls(f);
            for i in 0..f.tokens.len() {
                if f.in_test[i] {
                    continue;
                }
                // Method site: `name.iter()` and friends.
                if is_ident(f, i)
                    && fx.visible(t(f, i), i)
                    && t(f, i + 1) == "."
                    && ITER_METHODS.contains(&t(f, i + 2))
                    && t(f, i + 3) == "("
                {
                    // The sanction window covers the full statement —
                    // walking back across call parens, so the consumer in
                    // `BTreeSet::from_iter(m.iter()…)` is seen — plus the
                    // next statement: `let v: Vec<_> = m.iter().collect();
                    // v.sort_unstable();` is the workspace's canonical
                    // ordering idiom and must stay clean.
                    let s = window_start(f, i);
                    let e = stmt_end(f, i);
                    let e2 = stmt_end(f, e + 1);
                    if !sanctioned(f, s, e2) && !f.suppressed("nondet-iter", f.tokens[i].line) {
                        out.push(diag(f, i, "nondet-iter", HINT));
                    }
                }
                // For-loop site: `for pat in [&[mut]] [self.]name {`.
                if t(f, i) == "for" {
                    if let Some(name_tok) = for_loop_subject(f, i) {
                        if fx.visible(t(f, name_tok), name_tok) {
                            let body = name_tok + 1; // the `{`
                            let e = matching_brace(f, body);
                            if !sanctioned(f, i, e)
                                && !f.suppressed("nondet-iter", f.tokens[i].line)
                            {
                                out.push(diag(f, name_tok, "nondet-iter", HINT));
                            }
                        }
                    }
                }
            }
        }
    }
}

/// For a `for` token, the ident iterated over — only for the direct
/// container forms (`for p in &name {`, `for p in &mut self.name {`);
/// method chains are handled by the method-site pattern.
fn for_loop_subject(f: &SourceFile, for_tok: usize) -> Option<usize> {
    // Find `in` at bracket depth 0 before the body.
    let mut depth = 0i64;
    let mut j = for_tok + 1;
    let in_tok = loop {
        match t(f, j) {
            "" => return None,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return None,
            "in" if depth == 0 => break j,
            _ => {}
        }
        j += 1;
    };
    let mut k = in_tok + 1;
    while t(f, k) == "&" || t(f, k) == "mut" {
        k += 1;
    }
    if t(f, k) == "self" && t(f, k + 1) == "." {
        k += 2;
    }
    (is_ident(f, k) && t(f, k + 1) == "{").then_some(k)
}

/// Start of the sanction window: raw backward scan to the nearest `;`,
/// `{`, or `}` token, crossing call parentheses (unlike `stmt_start`) so
/// a consumer wrapping the iteration is inside the window.
fn window_start(f: &SourceFile, i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        match t(f, j - 1) {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    0
}

/// Whether tokens `[s, e]` contain an order-insensitive consumer.
fn sanctioned(f: &SourceFile, s: usize, e: usize) -> bool {
    (s..=e.min(f.tokens.len().saturating_sub(1))).any(|k| {
        let tx = t(f, k);
        tx.starts_with("sort") && is_ident(f, k) || ORDER_FREE.contains(&tx)
    })
}

/// Names declared Fx-typed, with scope: declarations inside a `fn` item
/// (params and lets) are visible only within that item; declarations
/// outside every `fn` (struct fields, statics) are visible file-wide.
/// This keeps a same-named closure variable in another function — e.g.
/// a `rules` param that is Fx-typed in one method and a plain `Vec` in a
/// closure elsewhere — from being falsely flagged.
struct FxDecls {
    global: FxHashSet<String>,
    /// (fn extent start, fn extent end, name) — innermost match wins.
    scoped: Vec<(usize, usize, String)>,
}

impl FxDecls {
    fn visible(&self, name: &str, site: usize) -> bool {
        self.global.contains(name)
            || self
                .scoped
                .iter()
                .any(|(s, e, n)| n == name && *s <= site && site <= *e)
    }
}

/// Collects `name: [path::]FxHashMap` annotations and
/// `name = [path::]FxHashMap::default()/new()` inits.
fn fx_decls(f: &SourceFile) -> FxDecls {
    let fns: Vec<(usize, usize)> = functions(f)
        .into_iter()
        .map(|it| (it.sig_start, it.body_end))
        .collect();
    let mut decls = FxDecls {
        global: FxHashSet::default(),
        scoped: Vec::new(),
    };
    for j in 0..f.tokens.len() {
        let tx = t(f, j);
        if tx != "FxHashMap" && tx != "FxHashSet" {
            continue;
        }
        // Walk back over a `path::` prefix to the start of the type path.
        let mut p = j;
        while p >= 2 && t(f, p - 1) == "::" && is_ident(f, p - 2) {
            p -= 2;
        }
        if p >= 2 && is_ident(f, p - 2) && (t(f, p - 1) == ":" || t(f, p - 1) == "=") {
            let name = t(f, p - 2).to_string();
            // Innermost enclosing fn, if any (nested fns overlap; the
            // one starting latest is innermost).
            let scope = fns
                .iter()
                .filter(|(s, e)| *s <= j && j <= *e)
                .max_by_key(|(s, _)| *s);
            match scope {
                Some(&(s, e)) => decls.scoped.push((s, e, name)),
                None => {
                    decls.global.insert(name);
                }
            }
        }
    }
    decls
}

#[cfg(test)]
mod tests {
    use super::super::{parse_one, run_pass};
    use super::*;

    #[test]
    fn flags_unsanctioned_iteration() {
        let g = parse_one(
            "struct S { touches: FxHashMap<u64, u32> }\nimpl S {\n    fn a(&self, out: &mut Vec<u64>) {\n        for (&k, _) in &self.touches {\n            out.push(k);\n        }\n        let v: Vec<u64> = self.touches.keys().copied().collect();\n        out.extend(v);\n    }\n}\n",
        );
        let ds = run_pass(&NondetIter, &[g]);
        assert_eq!(ds.len(), 2); // the for loop and the keys().collect::<Vec>
    }

    #[test]
    fn sanctioned_consumers_pass() {
        let f = parse_one(
            "fn a(m: FxHashMap<u64, u64>) -> u64 {\n    for (&k, &v) in &m {\n        assert!(k.max(v) > 0);\n    }\n    let total: u64 = m.values().sum();\n    let mut ks: Vec<u64> = m.keys().copied().collect();\n    ks.sort_unstable();\n    let n = m.iter().count() as u64;\n    let dedup: FxHashSet<u64> = m.values().copied().collect();\n    total + n + ks.len() as u64 + dedup.len() as u64\n}\n",
        );
        assert!(run_pass(&NondetIter, &[f]).is_empty());
    }

    #[test]
    fn unordered_digest_writes_are_not_sanctioned() {
        // A digest combiner is not order-free by name: a loop that feeds
        // one must sort first or carry a justified marker.
        let f = parse_one(
            "fn a(m: FxHashMap<u64, u64>, d: &mut Digest) {\n    for (&k, &v) in &m {\n        d.write_unordered(k ^ v);\n    }\n}\n",
        );
        assert_eq!(run_pass(&NondetIter, &[f]).len(), 1);
    }

    #[test]
    fn markers_tests_and_exempt_file() {
        let f = parse_one(
            "fn a(m: FxHashSet<u64>, out: &mut Vec<u64>) {\n    // lint:allow-nondet-iter result sorted on the next line\n    let mut v: Vec<u64> = m.iter().copied().collect();\n    v.sort_unstable();\n    out.extend(v);\n}\n#[cfg(test)]\nmod t { fn b(m: FxHashMap<u8, u8>) { for _ in &m {} } }\n",
        );
        // The collect is into Vec (order-sensitive) but carries a marker;
        // note the same statement has no sort (sort is next statement).
        assert!(run_pass(&NondetIter, &[f]).is_empty());
        let exempt = crate::SourceFile::parse(
            EXEMPT.into(),
            "pub fn sorted_entries(m: &FxHashMap<u64, u64>) -> Vec<(&u64, &u64)> { let mut v: Vec<_> = m.iter().collect(); v.sort(); v }".into(),
        );
        assert!(run_pass(&NondetIter, &[exempt]).is_empty());
    }
}
