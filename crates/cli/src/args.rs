//! Hand-rolled argument parsing (no external dependencies).

use std::fmt;

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  polyfit-cli build --input <data.csv> --output <index.pf>
                --aggregate <sum|count|max|min|count2d>
                --eps-abs <float> [--degree <1..8>] [--backend <exchange|chebyshev|simplex>]
                [--threads <N>]   (0 or omitted = all available cores)
                [--stats]         (sum/count: embed per-segment statistics)
                [--dynamic]       (sum/count: write a dynamic PFD2 index that retains
                                   its records — served through the engine with
                                   --shards / --wal)
                [--grid <N>]      (count2d: CF lattice resolution, default 1024;
                                   input rows are `u,v[,w]`)
  polyfit-cli query --index <index.pf> (--lo <float> --hi <float>
                | --rect <u_lo> <u_hi> <v_lo> <v_hi> | --batch-file <ranges.csv>)
  polyfit-cli serve --index <index.pf> --requests <ranges.csv>
                [--clients <N>]   (request-submitting client threads, default 4)
                [--shards <N>]    (serve a dynamic PFD2 index through the engine
                                   with N >= 1 key-space shards, default 1)
                [--wal <dir>]     (serve a dynamic PFD2 index through the engine,
                                   journaling updates durably: checkpoint +
                                   fsync-batched log per shard under <dir>)
                [--failpoint site=spec] (repeatable; arm a named failpoint — e.g.
                                   wal.fsync.err=once:error — to replay a fault
                                   schedule; needs a `failpoints`-feature build)
  polyfit-cli recover --wal <dir> [--output <index.pf>]
  polyfit-cli info  --index <index.pf> [--wal <dir>]

batch file: one `lo,hi` pair per line (2-D PFQ1 indexes: one
`u_lo,u_hi,v_lo,v_hi` rectangle per line); answers print one per line in
order.
serve: replays the request file from concurrent client threads and
reports per-request answers plus throughput. A dynamic (PFD2) index with
--wal or --shards is served through the sharded engine (reads answered on
the client threads from published shard snapshots), its answers verified
bitwise against composed per-shard snapshot reads; every other index file is immutable and answered directly
on the client threads, verified bitwise against one query_batch pass.
recover: rebuild the exact pre-crash index state from a WAL directory
(last checkpoint + checksummed log tail; torn tails are truncated) and
report the replay; --output writes the recovered index as a PFD2 file
(a sharded WAL must hold one shard, as `serve --wal` writes by default).
info --wal: additionally reports the journal's replay cursor (checkpoint
sequence vs log head) for each log segment under <dir>.";

/// Aggregate kind selected at build time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregate {
    Sum,
    Count,
    Max,
    Min,
    /// Two-key rectangle COUNT (quadtree of bivariate patches, PFQ1).
    Count2d,
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    Build {
        input: String,
        output: String,
        aggregate: Aggregate,
        eps_abs: f64,
        degree: usize,
        backend: String,
        /// Build-pipeline worker threads; 0 = available parallelism.
        threads: usize,
        /// Embed per-segment statistics in the index file (SUM/COUNT),
        /// so reloaded indexes keep compaction incremental.
        stats: bool,
        /// Write a dynamic (PFD2) index that retains its record set —
        /// the file kind sharded and WAL-journaled serving require.
        dynamic: bool,
        /// 2-D CF lattice resolution (count2d only).
        grid: usize,
    },
    Query {
        index: String,
        lo: f64,
        hi: f64,
    },
    /// Answer one rectangle COUNT against a 2-D (PFQ1) index.
    QueryRect {
        index: String,
        /// `(u_lo, u_hi, v_lo, v_hi)`.
        rect: (f64, f64, f64, f64),
    },
    /// Answer every `lo,hi` range of a batch file through `query_batch`.
    QueryBatch {
        index: String,
        batch_file: String,
    },
    /// Replay a request file from concurrent client threads.
    Serve {
        index: String,
        requests: String,
        /// Client threads submitting requests concurrently.
        clients: usize,
        /// Engine shard count (`--shards`, at least 1); `None` when the
        /// flag is absent. With this or `wal`, a dynamic PFD2 index is
        /// served through the sharded engine (one shard by default).
        shards: Option<usize>,
        /// WAL directory: journal every applied update durably
        /// (checkpoint + fsync-batched log per shard) so `recover` can
        /// rebuild the exact served state after a crash. Requires PFD2.
        wal: Option<String>,
        /// `site=spec` failpoint arms (repeatable), applied before the
        /// server starts — the CLI face of schedule replay. Rejected at
        /// run time unless the binary was built with `failpoints`.
        failpoints: Vec<String>,
    },
    /// Rebuild the exact pre-crash state from a WAL directory.
    Recover {
        wal: String,
        /// Write the recovered index as a PFD2 file (a sharded WAL must
        /// hold a single shard; more stay in their per-shard WAL).
        output: Option<String>,
    },
    Info {
        index: String,
        /// Also report the journal replay cursor(s) under this WAL dir.
        wal: Option<String>,
    },
}

/// Parse errors with human-readable context.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn flag_value<'a>(argv: &'a [String], flag: &str) -> Option<&'a str> {
    argv.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
}

fn required<'a>(argv: &'a [String], flag: &str) -> Result<&'a str, ParseError> {
    flag_value(argv, flag).ok_or_else(|| ParseError(format!("missing required flag {flag}")))
}

fn parse_f64(s: &str, flag: &str) -> Result<f64, ParseError> {
    s.parse().map_err(|_| ParseError(format!("{flag} expects a number, got '{s}'")))
}

/// Parse an argv (without the program name) into a [`Command`].
pub fn parse(argv: &[String]) -> Result<Command, ParseError> {
    let sub = argv.first().ok_or_else(|| ParseError("missing subcommand".into()))?;
    match sub.as_str() {
        "build" => {
            let aggregate = match required(argv, "--aggregate")? {
                "sum" => Aggregate::Sum,
                "count" => Aggregate::Count,
                "max" => Aggregate::Max,
                "min" => Aggregate::Min,
                "count2d" => Aggregate::Count2d,
                other => {
                    return Err(ParseError(format!(
                        "unknown aggregate '{other}' (expected sum|count|max|min|count2d)"
                    )))
                }
            };
            let eps_abs = parse_f64(required(argv, "--eps-abs")?, "--eps-abs")?;
            if eps_abs <= 0.0 {
                return Err(ParseError("--eps-abs must be positive".into()));
            }
            let degree = match flag_value(argv, "--degree") {
                Some(s) => s
                    .parse()
                    .map_err(|_| ParseError(format!("--degree expects an integer, got '{s}'")))?,
                None => 2,
            };
            let backend = flag_value(argv, "--backend").unwrap_or("exchange");
            if !["exchange", "chebyshev", "simplex"].contains(&backend) {
                return Err(ParseError(format!(
                    "unknown backend '{backend}' (expected exchange|chebyshev|simplex)"
                )));
            }
            let threads = match flag_value(argv, "--threads") {
                Some(s) => s
                    .parse()
                    .map_err(|_| ParseError(format!("--threads expects an integer, got '{s}'")))?,
                None => 0, // auto: all available cores
            };
            let grid = match flag_value(argv, "--grid") {
                Some(s) => {
                    let g: usize = s
                        .parse()
                        .map_err(|_| ParseError(format!("--grid expects an integer, got '{s}'")))?;
                    if !(2..=8192).contains(&g) {
                        return Err(ParseError("--grid must be between 2 and 8192".into()));
                    }
                    g
                }
                None => 1024,
            };
            Ok(Command::Build {
                input: required(argv, "--input")?.to_string(),
                output: required(argv, "--output")?.to_string(),
                aggregate,
                eps_abs,
                degree,
                backend: backend.to_string(),
                threads,
                stats: argv.iter().any(|a| a == "--stats"),
                dynamic: argv.iter().any(|a| a == "--dynamic"),
                grid,
            })
        }
        "query" => {
            let index = required(argv, "--index")?.to_string();
            let has_scalar =
                flag_value(argv, "--lo").is_some() || flag_value(argv, "--hi").is_some();
            let has_rect = argv.iter().any(|a| a == "--rect");
            if let Some(batch_file) = flag_value(argv, "--batch-file") {
                if has_scalar || has_rect {
                    return Err(ParseError(
                        "--batch-file conflicts with --lo/--hi/--rect (pick one query mode)".into(),
                    ));
                }
                return Ok(Command::QueryBatch { index, batch_file: batch_file.to_string() });
            }
            if has_rect {
                if has_scalar {
                    return Err(ParseError(
                        "--rect conflicts with --lo/--hi (pick one query mode)".into(),
                    ));
                }
                let at = argv.iter().position(|a| a == "--rect").expect("checked above");
                let vals = argv.get(at + 1..at + 5).ok_or_else(|| {
                    ParseError("--rect expects four numbers: u_lo u_hi v_lo v_hi".into())
                })?;
                let mut r = [0.0f64; 4];
                for (slot, s) in r.iter_mut().zip(vals) {
                    *slot = parse_f64(s, "--rect")?;
                }
                return Ok(Command::QueryRect { index, rect: (r[0], r[1], r[2], r[3]) });
            }
            Ok(Command::Query {
                index,
                lo: parse_f64(required(argv, "--lo")?, "--lo")?,
                hi: parse_f64(required(argv, "--hi")?, "--hi")?,
            })
        }
        "serve" => {
            let parse_usize = |flag: &str, default: usize| -> Result<usize, ParseError> {
                match flag_value(argv, flag) {
                    Some(s) => s
                        .parse()
                        .map_err(|_| ParseError(format!("{flag} expects an integer, got '{s}'"))),
                    None => Ok(default),
                }
            };
            let clients = parse_usize("--clients", 4)?;
            if clients == 0 {
                return Err(ParseError("--clients must be at least 1".into()));
            }
            let shards = match flag_value(argv, "--shards") {
                Some(_) => Some(parse_usize("--shards", 1)?),
                None => None,
            };
            if shards == Some(0) {
                return Err(ParseError("--shards must be at least 1".into()));
            }
            Ok(Command::Serve {
                index: required(argv, "--index")?.to_string(),
                requests: required(argv, "--requests")?.to_string(),
                clients,
                shards,
                wal: flag_value(argv, "--wal").map(String::from),
                failpoints: {
                    let mut arms = Vec::new();
                    for w in argv.windows(2) {
                        if w[0] == "--failpoint" {
                            let arm = w[1].as_str();
                            if !arm.contains('=') {
                                return Err(ParseError(format!(
                                    "--failpoint expects site=spec, got '{arm}'"
                                )));
                            }
                            arms.push(arm.to_string());
                        }
                    }
                    arms
                },
            })
        }
        "recover" => Ok(Command::Recover {
            wal: required(argv, "--wal")?.to_string(),
            output: flag_value(argv, "--output").map(String::from),
        }),
        "info" => Ok(Command::Info {
            index: required(argv, "--index")?.to_string(),
            wal: flag_value(argv, "--wal").map(String::from),
        }),
        other => Err(ParseError(format!("unknown subcommand '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_build() {
        let cmd = parse(&argv(
            "build --input d.csv --output i.pf --aggregate sum --eps-abs 100 --degree 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                input: "d.csv".into(),
                output: "i.pf".into(),
                aggregate: Aggregate::Sum,
                eps_abs: 100.0,
                degree: 3,
                backend: "exchange".into(),
                threads: 0,
                stats: false,
                dynamic: false,
                grid: 1024,
            }
        );
    }

    #[test]
    fn build_parses_stats_flag() {
        let cmd =
            parse(&argv("build --input d.csv --output i.pf --aggregate sum --eps-abs 10 --stats"))
                .unwrap();
        match cmd {
            Command::Build { stats, .. } => assert!(stats),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn build_defaults() {
        let cmd = parse(&argv("build --input d.csv --output i.pf --aggregate count --eps-abs 10"))
            .unwrap();
        match cmd {
            Command::Build { degree, backend, aggregate, threads, stats, dynamic, .. } => {
                assert_eq!(degree, 2);
                assert_eq!(backend, "exchange");
                assert_eq!(aggregate, Aggregate::Count);
                assert_eq!(threads, 0, "default is auto parallelism");
                assert!(!stats, "stats block is opt-in");
                assert!(!dynamic, "dynamic output is opt-in");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn build_parses_threads() {
        let cmd = parse(&argv(
            "build --input d.csv --output i.pf --aggregate sum --eps-abs 10 --threads 4",
        ))
        .unwrap();
        match cmd {
            Command::Build { threads, .. } => assert_eq!(threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv(
            "build --input d.csv --output i.pf --aggregate sum --eps-abs 10 --threads x"
        ))
        .is_err());
    }

    #[test]
    fn parses_query_and_info() {
        assert_eq!(
            parse(&argv("query --index i.pf --lo 1.5 --hi 9")).unwrap(),
            Command::Query { index: "i.pf".into(), lo: 1.5, hi: 9.0 }
        );
        assert_eq!(
            parse(&argv("info --index i.pf")).unwrap(),
            Command::Info { index: "i.pf".into(), wal: None }
        );
        assert_eq!(
            parse(&argv("info --index i.pf --wal w")).unwrap(),
            Command::Info { index: "i.pf".into(), wal: Some("w".into()) }
        );
    }

    #[test]
    fn parses_recover() {
        assert_eq!(
            parse(&argv("recover --wal wal-dir")).unwrap(),
            Command::Recover { wal: "wal-dir".into(), output: None }
        );
        assert_eq!(
            parse(&argv("recover --wal wal-dir --output r.pfd")).unwrap(),
            Command::Recover { wal: "wal-dir".into(), output: Some("r.pfd".into()) }
        );
        assert!(parse(&argv("recover")).is_err(), "--wal is required");
    }

    #[test]
    fn build_parses_dynamic_flag() {
        let cmd = parse(&argv(
            "build --input d.csv --output i.pfd --aggregate sum --eps-abs 10 --dynamic",
        ))
        .unwrap();
        match cmd {
            Command::Build { dynamic, .. } => assert!(dynamic),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_batch_query() {
        assert_eq!(
            parse(&argv("query --index i.pf --batch-file ranges.csv")).unwrap(),
            Command::QueryBatch { index: "i.pf".into(), batch_file: "ranges.csv".into() }
        );
        // Mixing query modes is rejected, not silently resolved.
        assert!(parse(&argv("query --index i.pf --lo 1 --hi 2 --batch-file r.csv")).is_err());
        assert!(parse(&argv("query --index i.pf --batch-file r.csv --hi 2")).is_err());
        assert!(parse(&argv("query --index i.pf --batch-file r.csv --rect 0 1 0 1")).is_err());
    }

    #[test]
    fn parses_count2d_build_and_rect_query() {
        let cmd = parse(&argv(
            "build --input p.csv --output q.pfq --aggregate count2d --eps-abs 400 --grid 512",
        ))
        .unwrap();
        match cmd {
            Command::Build { aggregate, grid, .. } => {
                assert_eq!(aggregate, Aggregate::Count2d);
                assert_eq!(grid, 512);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            parse(&argv(
                "build --input p.csv --output q.pfq --aggregate count2d --eps-abs 1 --grid 1"
            ))
            .is_err(),
            "grid below 2 is rejected"
        );
        assert_eq!(
            parse(&argv("query --index q.pfq --rect 0.5 10 -3 4")).unwrap(),
            Command::QueryRect { index: "q.pfq".into(), rect: (0.5, 10.0, -3.0, 4.0) }
        );
        // Short or non-numeric rects are usage errors.
        assert!(parse(&argv("query --index q.pfq --rect 1 2 3")).is_err());
        assert!(parse(&argv("query --index q.pfq --rect 1 2 3 x")).is_err());
        assert!(parse(&argv("query --index q.pfq --rect 1 2 3 4 --lo 1 --hi 2")).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&argv("serve --index i.pf --requests r.csv")).unwrap(),
            Command::Serve {
                index: "i.pf".into(),
                requests: "r.csv".into(),
                clients: 4,
                shards: None,
                wal: None,
                failpoints: vec![],
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --index i.pf --requests r.csv --clients 2 --shards 2 --wal wal-dir"
            ))
            .unwrap(),
            Command::Serve {
                index: "i.pf".into(),
                requests: "r.csv".into(),
                clients: 2,
                shards: Some(2),
                wal: Some("wal-dir".into()),
                failpoints: vec![],
            }
        );
        assert!(parse(&argv("serve --index i.pf")).is_err(), "--requests is required");
        assert!(parse(&argv("serve --index i.pf --requests r.csv --clients 0")).is_err());
        assert!(parse(&argv("serve --index i.pf --requests r.csv --shards x")).is_err());
        assert!(parse(&argv("serve --index i.pf --requests r.csv --shards 0")).is_err());
    }

    #[test]
    fn serve_parses_repeated_failpoints() {
        let cmd = parse(&argv(
            "serve --index i.pf --requests r.csv --failpoint wal.fsync.err=once:error \
             --failpoint shard.fence.skip=3:trigger",
        ))
        .unwrap();
        match cmd {
            Command::Serve { failpoints, .. } => {
                assert_eq!(
                    failpoints,
                    vec![
                        "wal.fsync.err=once:error".to_string(),
                        "shard.fence.skip=3:trigger".to_string(),
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // An arm without `=` is a usage error, not a silent no-op.
        assert!(parse(&argv("serve --index i.pf --requests r.csv --failpoint nonsense")).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(
            parse(&argv("build --input d.csv --output i.pf --aggregate avg --eps-abs 1")).is_err()
        );
        assert!(
            parse(&argv("build --input d.csv --output i.pf --aggregate sum --eps-abs -1")).is_err()
        );
        assert!(
            parse(&argv("build --input d.csv --output i.pf --aggregate sum --eps-abs x")).is_err()
        );
        assert!(parse(&argv("query --index i.pf --lo 1")).is_err());
        assert!(parse(&argv(
            "build --input d.csv --output i.pf --aggregate sum --eps-abs 1 --backend magic"
        ))
        .is_err());
    }
}
