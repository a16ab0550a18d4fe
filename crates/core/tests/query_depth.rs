//! The deepest queries the parser admits stay within a thread's stack.
//!
//! `parse_path` refuses a query nested deeper than
//! [`MAX_QUERY_DEPTH`](xpath_ast::MAX_QUERY_DEPTH).  Every later walk over
//! an admitted query — the Definition 1 check, Fig. 7, Lemma 3, the
//! printer, atom compilation, Fig. 8 answering and `Drop` — recurses over a
//! tree no taller than that bound.  This test finds the deepest admitted
//! query of each shape and runs it through all of them on a 2 MiB thread,
//! the default stack of a spawned thread.  Run under the debug profile,
//! whose frames are the largest, it shows any walk the bound does not
//! cover.

use ppl_xpath::prelude::*;

/// A query shape, as a function of its number of levels.
type Shape = fn(usize) -> String;

const SHAPES: &[(&str, Shape)] = &[
    ("parentheses", |n| {
        format!("{}child::a{}", "(".repeat(n), ")".repeat(n))
    }),
    ("filters", |n| {
        format!("{}child::a{}", "child::a[".repeat(n), "]".repeat(n))
    }),
    ("slash chain", |n| vec!["child::a"; n].join("/")),
    ("union chain", |n| vec!["child::a"; n].join(" union ")),
    ("except chain", |n| {
        vec!["descendant::*"; n].join(" except ")
    }),
    ("intersect chain", |n| {
        vec!["descendant::*"; n].join(" intersect ")
    }),
    ("and chain", |n| {
        format!("self::*[{}]", vec!["child::a"; n].join(" and "))
    }),
    ("or chain", |n| {
        format!("self::*[{}]", vec!["child::b"; n].join(" or "))
    }),
    ("not", |n| format!("self::*[{}child::a]", "not ".repeat(n))),
];

/// The largest number of levels of `shape` that parses.
fn deepest(shape: Shape) -> usize {
    let mut n = 1;
    while parse_path(&shape(n + 1)).is_ok() {
        n += 1;
    }
    n
}

#[test]
fn the_deepest_admitted_query_of_each_shape_plans_and_answers_on_a_2_mib_stack() {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let session = Session::from_terms("a(a(a(b),a),b,a(a))").unwrap();
            for &(name, shape) in SHAPES {
                let n = deepest(shape);
                let refused = parse_path(&shape(n + 1)).unwrap_err();
                assert!(refused.is_too_deep(), "{name}: {refused}");
                assert!(n >= 32, "{name}: only {n} levels admitted");

                let path = parse_path(&shape(n)).unwrap();
                assert!(!path.to_string().is_empty(), "{name}: printer");
                let auto = session.plan_path(path.clone(), Vec::new()).unwrap();
                assert!(!auto.explain().is_empty(), "{name}: explain");
                let want = session.execute(&auto).unwrap();
                for engine in [Engine::Ppl, Engine::Hcl, Engine::NaiveEnumeration] {
                    let plan = Planner::default()
                        .plan_with(&session, path.clone(), Vec::new(), Some(engine))
                        .unwrap_or_else(|e| panic!("{name} on {engine}: {e}"));
                    assert_eq!(session.execute(&plan).unwrap(), want, "{name} on {engine}");
                }
            }
        })
        .unwrap()
        .join()
        .expect("the deep-query thread panicked");
}
