//! `negrules` — negative association rule mining from the command line.
//!
//! ```text
//! negrules generate  --data out.nadb --taxonomy out-tax.txt [--preset short|tall]
//!                    [--transactions N] [--items N] [--seed S] [--shards N]
//! negrules stats     --data D [--taxonomy T] [--salvage]
//! negrules mine      --data D --taxonomy T [--min-support F] [--min-conf F]
//!                    [--algorithm basic|cumulate|estmerge|partition]
//!                    [--r-interest R] [--salvage] [--audit]
//! negrules negatives --data D | --manifest M --taxonomy T [--min-support F] [--min-ri F]
//!                    [--driver naive|improved] [--algorithm basic|cumulate|estmerge]
//!                    [--max-size K] [--cap N] [--top N] [--out rules.csv]
//!                    [--checkpoint-dir DIR] [--max-memory BYTES] [--salvage]
//!                    [--audit] [--trace FILE] [--metrics] [--pass-stats]
//! negrules export-snapshot --data D --taxonomy T --out S.nars [--min-support F]
//!                    [--min-ri F] [--min-conf F] [--snapshot-version N] [--salvage]
//! negrules serve     --snapshot S.nars --taxonomy T [--addr HOST:PORT]
//!                    [--workers N] [--metrics]
//! negrules query     --addr HOST:PORT [--baskets FILE] [--out FILE]
//!                    [--swap S.nars] [--ping]
//! negrules match     --snapshot S.nars --taxonomy T --baskets FILE
//!                    [--out FILE] [--indexed]
//! ```

mod commands;
mod exit;
mod io;
mod opts;
mod signal;

use exit::CliError;
use std::process::ExitCode;

const USAGE: &str =
    "negrules <generate|stats|mine|negatives|export-snapshot|serve|query|match> [options]

  generate   synthesize a dataset (paper section 3.1 generator)
             --data PATH --taxonomy PATH [--preset short|tall]
             [--transactions N] [--items N] [--seed S]
             [--shards N]  (also write N shard files + checksummed manifest)
  stats      summarize a transaction file
             --data PATH [--taxonomy PATH] [--salvage]
  mine       positive generalized association rules
             --data PATH --taxonomy PATH [--min-support F=0.01]
             [--min-conf F=0.6] [--top N=20]
             [--algorithm basic|cumulate|estmerge|partition]
             [--partitions N=4] [--r-interest R] [--threads N|auto]
             [--backend bitmap|flat] [--salvage] [--audit]
  negatives  strong negative association rules (Savasere et al., ICDE '98)
             --data PATH | --manifest PATH --taxonomy PATH [--min-support F=0.01]
             [--min-ri F=0.5] [--driver naive|improved]
             [--algorithm basic|cumulate|estmerge] [--max-size K]
             [--cap N] [--top N=20] [--out rules.csv] [--no-compress]
             [--threads N|auto]      (worker threads per counting pass)
             [--backend bitmap|flat] (counting backend; same output)
             [--pass-stats]          (per-pass counting telemetry table;
                                      on an interrupted run only completed
                                      passes are shown, flagged as partial)
             [--trace FILE]          (JSON-lines structured trace events)
             [--metrics]             (named counters/gauges after the run)
             [--checkpoint-dir DIR]  (persist progress; resume after a crash
                                      or an interrupt)
             [--deadline SECS]       (cancel cooperatively when the wall
                                      clock runs out; exits 3)
             [--stall-timeout SECS]  (cancel when counting stops making
                                      progress for SECS; exits 3)
             [--max-memory BYTES]    (degrade instead of OOM; K/M/G suffixes)
             [--inject-fail-pass N]  (fault injection for testing recovery)
             [--salvage]  (skip corrupt .nadb blocks, report exact lost TIDs;
                           with --manifest: salvage or quarantine failing
                           shards and mine the rest — still exits 0, with
                           the degraded completeness stated)
             [--audit]    (re-derive every reported number from a raw scan)
  export-snapshot  mine and persist the rule set as an immutable,
             versioned NARS snapshot for the serving layer
             --data PATH --taxonomy PATH --out S.nars
             [--min-support F=0.01] [--min-ri F=0.5] [--min-conf F=0.6]
             [--snapshot-version N=1] [--salvage]
  serve      serve basket-match queries from a snapshot over TCP
             --snapshot S.nars --taxonomy PATH
             [--addr HOST:PORT=127.0.0.1:0]  (port 0 picks a free port;
                                      the chosen address is printed first)
             [--workers N=4] [--metrics]
             SIGINT drains gracefully and exits 0; hot-swap snapshots
             with `query --swap`
  query      TCP client: answer a basket batch, swap snapshots, or ping
             --addr HOST:PORT [--baskets FILE] [--out FILE]
             [--swap S.nars]  (server-side hot-swap to that snapshot)
             [--ping]
  match      offline oracle: answer a basket batch straight from the
             snapshot with the index-free full-scan matcher; its output
             is byte-identical to served answers for the same baskets
             --snapshot S.nars --taxonomy PATH --baskets FILE
             [--out FILE] [--indexed]

Basket files: one basket per line, comma-separated item names.

With --manifest the database is a checksummed shard manifest (see
`generate --shards`): shards stream one at a time with bounded memory,
and each shard is an independent fault domain.

Transaction files: .nadb (binary) or whitespace text, one basket per line.
Taxonomy files: `name<TAB>parent` per line, `-` for roots.

Exit codes: 0 complete; 1 error; 2 usage; 3 interrupted (SIGINT, deadline,
or stall) — with --checkpoint-dir the interrupted run leaves a resumable
checkpoint and re-running the same command finishes with identical output.";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = args.collect();
    let result = match command.as_str() {
        "generate" => commands::generate::run(rest),
        "stats" => commands::stats::run(rest),
        "mine" => commands::mine::run(rest),
        "negatives" => commands::negatives::run(rest),
        "export-snapshot" => commands::export_snapshot::run(rest),
        "serve" => commands::serve::run(rest),
        "query" => commands::query::run(rest),
        "match" => commands::match_cmd::run(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            let prefix = match &err {
                CliError::Usage(_) => "usage error",
                CliError::Failure(_) => "error",
                CliError::Interrupted(_) => "interrupted",
            };
            eprintln!("{prefix}: {}", err.message());
            ExitCode::from(err.exit_code())
        }
    }
}
