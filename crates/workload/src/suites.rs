//! Parameterised query suites and tree sweeps for the benchmark harness.

use xpath_ast::dsl::{and_all, has, is_var, step_child, step_desc};
use xpath_ast::{BinExpr, NameTest, PathExpr, Var};
use xpath_tree::generate::{random_tree, TreeGenConfig, TreeShape};
use xpath_tree::{Axis, Tree};

/// A sweep of random trees of increasing sizes (same shape and seed base),
/// used by the `|t|`-scaling experiments.
pub fn tree_sweep(sizes: &[usize], shape: TreeShape, seed: u64) -> Vec<Tree> {
    sizes
        .iter()
        .map(|&size| {
            random_tree(&TreeGenConfig {
                size,
                shape,
                alphabet: 4,
                seed: seed ^ (size as u64),
            })
        })
        .collect()
}

/// The paper's introduction query generalised to one output variable per
/// attribute: select, per `record` element, the tuple of its attribute
/// children.
///
/// ```text
/// descendant::record[child::a1[. is $v0] and … and child::ak[. is $v{k-1}]]
/// ```
///
/// Used with the bibliography documents (`record = book`,
/// `attributes = [author, title]`) and the restaurant documents
/// (`record = restaurant`, the 11 attribute columns).
pub fn record_attributes_query(record: &str, attributes: &[&str]) -> (PathExpr, Vec<Var>) {
    assert!(!attributes.is_empty());
    let vars: Vec<Var> = (0..attributes.len())
        .map(|i| Var::new(&format!("v{i}")))
        .collect();
    let tests = attributes
        .iter()
        .zip(&vars)
        .map(|(attr, var)| has(step_child(attr).filter(is_var(var.name()))));
    let query = step_desc(record).filter(and_all(tests));
    (query, vars)
}

/// The author–title pair query of the paper's introduction, over the
/// bibliography documents.
pub fn bibliography_pairs_query() -> (PathExpr, Vec<Var>) {
    record_attributes_query("book", &["author", "title"])
}

/// A restaurant query selecting the first `width` attribute columns
/// (`1 ≤ width ≤ 11`), exercising growing tuple widths `n`.
pub fn restaurant_query(width: usize) -> (PathExpr, Vec<Var>) {
    let attrs = &xpath_tree::generate::RESTAURANT_ATTRIBUTES[..width.clamp(1, 11)];
    record_attributes_query("restaurant", attrs)
}

/// A chain query of `k` child steps each binding a fresh variable:
/// `child::*[. is $v0]/child::*[. is $v1]/…` — selects all downward paths of
/// length `k`, with answer-set size governed by the tree shape.
pub fn chain_query(k: usize) -> (PathExpr, Vec<Var>) {
    assert!(k >= 1);
    let vars: Vec<Var> = (0..k).map(|i| Var::new(&format!("v{i}"))).collect();
    let mut query: Option<PathExpr> = None;
    for var in &vars {
        let step = PathExpr::Step(Axis::Child, NameTest::Wildcard).filter(is_var(var.name()));
        query = Some(match query {
            None => step,
            Some(acc) => acc.then(step),
        });
    }
    (query.expect("k >= 1"), vars)
}

/// A suite of PPLbin expressions of increasing size, built by repeatedly
/// composing and uniting axis steps and adding `except`/filter layers.
/// `levels` controls the size; the expression size grows linearly in it.
pub fn pplbin_suite(levels: usize) -> BinExpr {
    let step = |axis: Axis, name: Option<&str>| {
        BinExpr::Step(
            axis,
            match name {
                Some(n) => NameTest::name(n),
                None => NameTest::Wildcard,
            },
        )
    };
    let mut expr = step(Axis::Child, None);
    for i in 0..levels {
        expr = match i % 4 {
            0 => expr.then(step(Axis::Child, None)),
            1 => expr.or(step(Axis::Descendant, Some("l0"))),
            2 => BinExpr::minus(expr, step(Axis::FollowingSibling, None)),
            _ => expr.then(step(Axis::Parent, None).test()),
        };
    }
    expr
}

/// The E12 planner-comparison suite: PPL queries over the `l0…l2` generator
/// alphabet spanning the shapes the engines differ on.
///
/// * step-only, union-free, acyclic queries: every atom is a plain step,
///   which `ppl` answers from tree views and `acq` as sparse Yannakakis
///   semijoins;
/// * `except`-bearing dense-filter queries: composite atoms that `ppl`
///   compiles once into cached matrix products;
/// * a union query (distributed by the `acq` engine, native to `ppl`);
/// * an arity-0 satisfiability query.
///
/// Returned as `(source, output_variables)` pairs so callers can prepare
/// them through any planner configuration.
pub fn planner_mix_suite() -> Vec<(String, Vec<String>)> {
    let dense = "(descendant::* except child::l0)/(descendant::* except child::l1)";
    vec![
        // Plain steps, tree-shaped joins: every atom is a tree view.
        (
            "descendant::l0[child::l1[. is $x]]/child::l2[. is $y]".to_string(),
            vec!["x".into(), "y".into()],
        ),
        ("descendant::l1[. is $x]".to_string(), vec!["x".into()]),
        (
            "descendant::l0[child::l1][child::l2[. is $z]]".to_string(),
            vec!["z".into()],
        ),
        // Dense complements dominate compilation.
        (
            format!("descendant::l0[not({dense})][. is $x]"),
            vec!["x".into()],
        ),
        (
            format!("descendant::l1[not({dense})][child::l2[. is $y]]"),
            vec!["y".into()],
        ),
        // union — ppl natively, acq via Prop. 9 distribution.
        (
            "descendant::l0[. is $x] union descendant::l2[. is $x]".to_string(),
            vec!["x".into()],
        ),
        // satisfiability (arity 0).
        ("descendant::l0[child::l1]".to_string(), vec![]),
    ]
}

/// The E14 large-document suite over the DBLP-style documents of
/// [`xpath_tree::generate::dblp`]: queries a bibliography service would
/// actually run, weighted towards the complement-bearing forms
/// (`except` / `not(...)`) whose eager compilation densifies an
/// `|t| × |t|` matrix — the regime the lazy kernels exist for.
///
/// Returned as `(source, output_variables)` pairs, all PPL.
pub fn dblp_suite() -> Vec<(String, Vec<String>)> {
    vec![
        // Plain navigation — the eager-friendly baseline.
        (
            "descendant::article[child::author[. is $a]]/child::title[. is $t]".to_string(),
            vec!["a".into(), "t".into()],
        ),
        // Journal-less records: a complement over a selective step.
        (
            "descendant::inproceedings[not(child::journal)][. is $x]".to_string(),
            vec!["x".into()],
        ),
        // `except` on the descendant axis — eagerly a dense |t|×|t| product.
        (
            "(descendant::* except descendant::article)[child::author[. is $x]]".to_string(),
            vec!["x".into()],
        ),
        // Doubly-negated filter: records that are *not* missing a year.
        (
            "descendant::article[not(not(child::year))]/child::title[. is $t]".to_string(),
            vec!["t".into()],
        ),
        // Venue lookup under a complement — mixes both regimes.
        (
            "(descendant::* except descendant::www)[child::booktitle[. is $v]]".to_string(),
            vec!["v".into()],
        ),
        // Arity-0 satisfiability with a complement.
        (
            "descendant::phdthesis[not(child::journal)]".to_string(),
            vec![],
        ),
    ]
}

/// The E13 multi-document corpus suite: `docs` named random trees in three
/// size bands (`base`, `2·base`, `3·base` nodes, cycling) over the
/// `l0…l2` generator alphabet, so the E10/E12 query suites apply unchanged.
/// Names are zero-padded (`doc00`, `doc01`, …) so corpus name order equals
/// generation order.
pub fn corpus_documents(docs: usize, base_size: usize, seed: u64) -> Vec<(String, Tree)> {
    (0..docs)
        .map(|i| {
            let size = base_size.max(1) * (1 + i % 3);
            let shape = match i % 3 {
                0 => TreeShape::BoundedBranching { max_children: 4 },
                1 => TreeShape::RandomAttachment,
                _ => TreeShape::BoundedBranching { max_children: 2 },
            };
            let tree = random_tree(&TreeGenConfig {
                size,
                shape,
                alphabet: 3,
                seed: seed ^ ((i as u64 + 1) << 7),
            });
            (format!("doc{i:02}"), tree)
        })
        .collect()
}

/// Convenience re-export of the document generators most benches need.
pub mod documents {
    pub use xpath_tree::generate::{
        bibliography, dblp, random_tree, restaurants, TreeGenConfig, TreeShape,
        RESTAURANT_ATTRIBUTES,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use xpath_ast::ppl::check_ppl;
    use xpath_tree::generate::{bibliography, restaurants, RESTAURANT_ATTRIBUTES};

    #[test]
    fn tree_sweep_produces_requested_sizes() {
        let trees = tree_sweep(&[10, 50, 100], TreeShape::RandomAttachment, 3);
        assert_eq!(
            trees.iter().map(Tree::len).collect::<Vec<_>>(),
            vec![10, 50, 100]
        );
    }

    #[test]
    fn record_queries_are_ppl_and_have_the_right_arity() {
        let (q, vars) = bibliography_pairs_query();
        assert!(check_ppl(&q).is_ok());
        assert_eq!(vars.len(), 2);
        assert_eq!(
            q.to_string(),
            "descendant::book[child::author[. is $v0] and child::title[. is $v1]]"
        );

        for width in [1, 5, 11] {
            let (q, vars) = restaurant_query(width);
            assert!(check_ppl(&q).is_ok(), "width {width}");
            assert_eq!(vars.len(), width);
        }
    }

    #[test]
    fn restaurant_query_answers_scale_with_selectivity() {
        use xpath_ast::Var;
        use xpath_naive::answer_nary;
        let doc = restaurants(6, &RESTAURANT_ATTRIBUTES[..3], 3);
        let (q, vars) = record_attributes_query("restaurant", &RESTAURANT_ATTRIBUTES[..3]);
        let ans = answer_nary(&doc, &q, &vars).unwrap();
        // Every third restaurant misses its last attribute, so 4 of 6 match.
        assert_eq!(ans.len(), 4);
        let _ = Var::new("unused");
    }

    #[test]
    fn bibliography_query_counts_author_title_pairs() {
        use xpath_naive::answer_nary;
        let doc = bibliography(5, 3);
        let (q, vars) = bibliography_pairs_query();
        let ans = answer_nary(&doc, &q, &vars).unwrap();
        // Books have 1 + (i mod 3) authors and one title each:
        // 1 + 2 + 3 + 1 + 2 = 9 pairs.
        assert_eq!(ans.len(), 9);
    }

    #[test]
    fn chain_queries_are_ppl_and_follow_paths() {
        use xpath_naive::answer_nary;
        let (q, vars) = chain_query(3);
        assert!(check_ppl(&q).is_ok());
        assert_eq!(vars.len(), 3);
        let t = Tree::from_terms("a(b(c(d)),e)").unwrap();
        let ans = answer_nary(&t, &q, &vars).unwrap();
        // Downward paths of length 3 starting anywhere: only b→c→d... and
        // they must be consecutive children: (b,c,d) from a, so 1 tuple.
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn planner_mix_suite_spans_the_decision_regimes() {
        use xpath_ast::parse_path;
        let suite = planner_mix_suite();
        assert!(suite.len() >= 6);
        let mut has_union = false;
        let mut has_dense = false;
        let mut has_zero_ary = false;
        for (src, vars) in &suite {
            let q = parse_path(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(check_ppl(&q).is_ok(), "{src} must be PPL");
            has_union |= src.contains("union");
            has_dense |= src.contains("except");
            has_zero_ary |= vars.is_empty();
        }
        assert!(has_union && has_dense && has_zero_ary);
    }

    #[test]
    fn dblp_suite_is_ppl_and_answers_on_dblp_documents() {
        use xpath_ast::{parse_path, Var};
        use xpath_naive::answer_nary;
        use xpath_tree::generate::dblp;
        // Small document: the reference engine is naive (polynomial of high
        // degree on `except` queries), and selectivity is all we check here.
        let doc = dblp(90, 0xD8_1F);
        let suite = dblp_suite();
        assert!(suite.len() >= 5);
        let mut complements = 0;
        let mut nonempty = 0;
        for (src, vars) in &suite {
            let q = parse_path(src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!(check_ppl(&q).is_ok(), "{src} must be PPL");
            if src.contains("except") || src.contains("not(") {
                complements += 1;
            }
            let vars: Vec<Var> = vars.iter().map(|v| Var::new(v)).collect();
            let ans = answer_nary(&doc, &q, &vars).unwrap();
            if !ans.is_empty() {
                nonempty += 1;
            }
        }
        // The suite must stress the lazy regime, not just plain steps…
        assert!(complements >= 4, "only {complements} complement queries");
        // …and actually select something on the documents it is meant for.
        assert!(nonempty >= 4, "only {nonempty} non-empty answers");
    }

    #[test]
    fn corpus_documents_have_banded_sizes_and_stable_names() {
        let docs = corpus_documents(7, 40, 0xC0FF);
        assert_eq!(docs.len(), 7);
        let names: Vec<&str> = docs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names[..3], ["doc00", "doc01", "doc02"]);
        let sizes: Vec<usize> = docs.iter().map(|(_, t)| t.len()).collect();
        assert_eq!(&sizes[..6], &[40, 80, 120, 40, 80, 120]);
        // Labels come from the l0..l2 alphabet so the E10/E12 suites apply.
        for (name, tree) in &docs {
            for node in tree.nodes() {
                assert!(
                    matches!(tree.label_str(node), "l0" | "l1" | "l2"),
                    "{name}: unexpected label {}",
                    tree.label_str(node)
                );
            }
        }
        // Deterministic per seed, distinct across seeds.
        let again = corpus_documents(7, 40, 0xC0FF);
        assert_eq!(docs[3].1.to_terms(), again[3].1.to_terms());
        let other = corpus_documents(7, 40, 0xBEEF);
        assert_ne!(docs[3].1.to_terms(), other[3].1.to_terms());
    }

    #[test]
    fn pplbin_suite_grows_linearly() {
        let sizes: Vec<usize> = (0..8).map(|l| pplbin_suite(l).size()).collect();
        for w in sizes.windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] - w[0] <= 4);
        }
    }
}
