//! `dota top` — terminal dashboard over a live `/metrics` endpoint.

use dota_core::cli::Args;

pub(crate) fn cmd_top(mut args: Args) -> Result<(), String> {
    // `--once` is one tick: `--ticks` is read only without it.
    let ticks = if args.switch("--once") {
        Some(1)
    } else {
        args.number("--ticks")?
    };
    let addr = args.value("--addr")?;
    let interval_ms = args.number("--interval-ms")?.unwrap_or(1000);
    args.finish("dota top")?;
    if ticks == Some(0) {
        return Err("--ticks 0 must be at least 1 (or left out to poll until interrupted)".into());
    }
    let addr = addr.ok_or("top needs --addr HOST:PORT")?;
    let bounded = ticks.is_some();
    let mut top = dota_telemetry::top::TopState::new();
    let mut polled = 0usize;
    loop {
        let body = dota_telemetry::http::get(addr.trim(), "/metrics")
            .map_err(|e| format!("fetching http://{addr}/metrics: {e}"))?;
        let samples = dota_telemetry::exposition::parse(&body)
            .map_err(|e| format!("parsing http://{addr}/metrics: {e}"))?;
        top.observe(&samples);
        if !bounded {
            // Clear + home; plain appends in bounded mode keep the output
            // pipeable for tests and scripts.
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", top.render(&samples));
        polled += 1;
        if ticks == Some(polled) {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
