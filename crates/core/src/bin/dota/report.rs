//! `dota report diff` — value-by-value comparison of two runs.

use dota_core::cli::Args;
use dota_core::report;

pub(crate) fn cmd_report(mut args: Args) -> Result<(), String> {
    let mut opts = report::DiffOptions {
        allow_added: args.switch("--allow-added"),
        ..Default::default()
    };
    if let Some(t) = args.number::<f64>("--tol")? {
        if t.is_nan() || t < 0.0 {
            return Err("--tol must be a non-negative number".to_owned());
        }
        opts.tolerance = t;
    }
    let ignore = args.list("--ignore", |k| Ok(k.to_owned()))?;
    opts.ignore_keys.extend(ignore.unwrap_or_default());
    let (sub, a, b) = (args.positional(), args.positional(), args.positional());
    args.finish("dota report")?;
    match sub.as_deref() {
        Some("diff") => {
            let needs = "report diff needs two paths: dota report diff <run-a> <run-b>";
            let (a, b) = a.zip(b).ok_or(needs)?;
            let rep =
                report::diff_paths(std::path::Path::new(&a), std::path::Path::new(&b), &opts)?;
            print!("{}", rep.render());
            if rep.has_regressions() {
                return Err(format!("{} regression(s) found", rep.findings.len()));
            }
            Ok(())
        }
        Some(other) => Err(format!(
            "unknown report subcommand `{other}` (try `dota report diff A B`)"
        )),
        None => {
            Err("usage: dota report diff <run-a> <run-b> [--tol T] [--ignore K1,K2]".to_owned())
        }
    }
}
