//! `negrules mine` — positive generalized association rules (Cumulate +
//! ap-genrules), the baseline view negative mining builds on.

use crate::commands::{itemset_names, parse_backend, parse_parallelism};
use crate::exit::CliError;
use crate::io::{load_db_opts, load_taxonomy};
use crate::opts::Opts;
use negassoc_apriori::parallel::Obs;
use negassoc_apriori::rules::generate_rules;
use negassoc_apriori::MinSupport;

const KNOWN: &[&str] = &[
    "data",
    "taxonomy",
    "min-support",
    "min-conf",
    "top",
    "algorithm",
    "partitions",
    "r-interest",
    "threads",
    "backend",
    "salvage!",
    "audit!",
];

pub(crate) fn run(args: Vec<String>) -> Result<(), CliError> {
    let opts = Opts::parse(args, KNOWN)?;
    let parallelism = parse_parallelism(&opts).map_err(CliError::Usage)?;
    let backend = parse_backend(&opts).map_err(CliError::Usage)?;
    let db = load_db_opts(opts.require("data")?, opts.flag("salvage"))?;
    let tax = load_taxonomy(opts.require("taxonomy")?)?;
    let min_support: f64 = opts.parse_or("min-support", 0.01)?;
    let min_conf: f64 = opts.parse_or("min-conf", 0.6)?;
    let top: usize = opts.parse_or("top", 20)?;

    let min_support = MinSupport::Fraction(min_support);
    let obs = Obs::disabled();
    let large = match opts.get("algorithm") {
        None | Some("cumulate") => negassoc_apriori::cumulate::cumulate(
            &db,
            &tax,
            min_support,
            backend,
            parallelism,
            None,
            &obs,
        ),
        Some("basic") => {
            negassoc_apriori::basic::basic(&db, &tax, min_support, backend, parallelism, None, &obs)
        }
        Some("estmerge") => negassoc_apriori::est_merge::est_merge(
            &db,
            &tax,
            min_support,
            backend,
            Default::default(),
            parallelism,
            None,
            &obs,
        )
        .map(|(large, _)| large),
        Some("partition") => {
            let parts: usize = opts.parse_or("partitions", 4)?;
            negassoc_apriori::partition_mine::partition_mine(
                &db,
                Some(&tax),
                min_support,
                parts,
                backend,
                parallelism,
                None,
                &obs,
            )
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown algorithm {other:?} (basic|cumulate|estmerge|partition)"
            )))
        }
    }
    .map_err(|e| e.to_string())?;
    if opts.flag("audit") {
        let audit = negassoc::audit::certify_large(&db, &tax, &large).map_err(|e| e.to_string())?;
        println!("{audit}");
    }
    println!(
        "{} generalized large itemsets (minsup = {} transactions)",
        large.total(),
        large.min_support_count()
    );
    for k in 1..=large.max_level() {
        println!("  level {k}: {}", large.level_len(k));
    }

    let mut rules = generate_rules(&large, min_conf);
    // Optional R-interest pruning (Srikant & Agrawal's measure): drop rules
    // an ancestor rule already predicts within factor R.
    if let Some(r) = opts.get("r-interest") {
        let r: f64 = r
            .parse()
            .map_err(|_| format!("invalid --r-interest {r:?}"))?;
        let before = rules.len();
        rules = negassoc::positive::r_interesting(rules, &large, &tax, r)
            .map_err(|e| e.to_string())?
            .into_iter()
            .filter(|j| j.interesting)
            .map(|j| j.rule)
            .collect();
        println!(
            "R-interest pruning (R = {r}): {before} -> {} rules",
            rules.len()
        );
    }
    rules.sort_by(|a, b| {
        b.confidence
            .total_cmp(&a.confidence)
            .then(b.support.cmp(&a.support))
            .then_with(|| a.antecedent.cmp(&b.antecedent))
            .then_with(|| a.consequent.cmp(&b.consequent))
    });
    println!("\n{} rules at confidence >= {min_conf}:", rules.len());
    for r in rules.iter().take(top) {
        println!(
            "  {} => {}  (conf {:.3}, sup {})",
            itemset_names(&tax, &r.antecedent),
            itemset_names(&tax, &r.consequent),
            r.confidence,
            r.support
        );
    }
    Ok(())
}
