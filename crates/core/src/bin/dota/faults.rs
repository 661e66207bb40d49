//! `dota faults` — the deterministic fault-injection campaign.

use super::{infer::flag_task_seq, numbers};
use dota_core::campaign;
use dota_core::cli::Args;

pub(crate) fn cmd_faults(mut args: Args) -> Result<(), String> {
    let mut opts = campaign::CampaignOptions::default();
    opts.seed = args.number("--seed")?.unwrap_or(opts.seed);
    opts.sites = args
        .list("--sites", dota_faults::FaultSite::parse)?
        .unwrap_or(opts.sites);
    opts.rates = args
        .list("--rates", numbers("--rates"))?
        .unwrap_or(opts.rates);
    opts.seq_len = flag_task_seq(&mut args, opts.seq_len)?;
    let out = args.value("--out")?;
    args.finish("dota faults")?;
    opts.validate()?;
    println!(
        "fault campaign: seed {}, {} site(s) x {} rate(s), seq {}",
        opts.seed,
        opts.sites.len(),
        opts.rates.len(),
        opts.seq_len
    );
    let report = campaign::run_campaign(&opts);
    println!(
        "{:<18} {:>6} {:>9} {:>9} {:>14}  error",
        "site", "rate", "status", "injected", "outcome"
    );
    for run in &report.runs {
        println!(
            "{:<18} {:>6} {:>9} {:>9} {:>14}  {}",
            run.site.name(),
            run.rate,
            run.status.name(),
            run.injected,
            if run.outcome.is_finite() {
                format!("{:.3}", run.outcome)
            } else {
                "-".to_owned()
            },
            run.error.as_deref().unwrap_or("")
        );
    }
    let (clean, absorbed, failed) = report.tally();
    println!("{clean} clean, {absorbed} absorbed, {failed} failed");
    if let Some(out) = out {
        let path = std::path::Path::new(&out);
        report
            .write(path)
            .map_err(|e| format!("writing campaign report {out}: {e}"))?;
        eprintln!("[campaign report written to {out}]");
    }
    Ok(())
}
