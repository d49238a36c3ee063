//! `--obs` plumbing shared by the workload binaries.
//!
//! `fig5`, `fig5_async`, and `examples/lockstat.rs` all
//! offer the same monitoring flags: `--obs [ADDR]` starts the
//! [`oll_obs::Sampler`] daemon for the duration of the run (and, when
//! ADDR is given, serves `/metrics`, `/json`, and `/health` from it),
//! `--obs-json PATH` writes the final `oll.obs` document, and
//! `--obs-interval-ms N` tunes the tick. [`parse_flag`] handles the
//! shared argv cases, [`start`] spins the session up, and [`finish`]
//! tears it down and returns the end-of-run text summary.

use oll_obs::{HealthConfig, ObsServer, Sampler, SamplerConfig};
use std::time::Duration;

/// The shared `--obs*` argument set.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// Monitoring requested (`--obs` or `--obs-json` seen).
    pub on: bool,
    /// Exposition listen address, if `--obs` carried one.
    pub addr: Option<String>,
    /// Where to write the final `oll.obs` document.
    pub json: Option<String>,
    /// Sampling interval override, milliseconds.
    pub interval_ms: Option<u64>,
}

impl ObsArgs {
    /// The sampler configuration these arguments describe.
    pub fn config(&self) -> SamplerConfig {
        let mut cfg = SamplerConfig::default();
        if let Some(ms) = self.interval_ms {
            cfg.interval = Duration::from_millis(ms.max(1));
        }
        cfg
    }
}

/// Consumes one `--obs*` flag at `argv[*i]` if it is one, advancing
/// `*i` past any value it takes. Returns `false` (untouched) for other
/// flags. `bad` is called with a diagnostic on a malformed value.
pub fn parse_flag(
    argv: &[String],
    i: &mut usize,
    args: &mut ObsArgs,
    bad: &mut dyn FnMut(&str),
) -> bool {
    match argv[*i].as_str() {
        "--obs" => {
            args.on = true;
            // The address is optional: `--obs 127.0.0.1:9184` listens,
            // bare `--obs` only samples. A following flag is not an
            // address.
            if let Some(next) = argv.get(*i + 1) {
                if !next.starts_with('-') {
                    args.addr = Some(next.clone());
                    *i += 1;
                }
            }
            true
        }
        "--obs-json" => {
            match argv.get(*i + 1) {
                Some(path) => {
                    args.on = true;
                    args.json = Some(path.clone());
                    *i += 1;
                }
                None => bad("missing value for --obs-json"),
            }
            true
        }
        "--obs-interval-ms" => {
            match argv.get(*i + 1).and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => {
                    args.interval_ms = Some(ms);
                    *i += 1;
                }
                _ => bad("bad --obs-interval-ms"),
            }
            true
        }
        _ => false,
    }
}

/// A running monitoring session: the sampler daemon plus the optional
/// exposition listener.
#[derive(Debug)]
pub struct ObsSession {
    sampler: Sampler,
    server: Option<ObsServer>,
}

impl ObsSession {
    /// The exposition listener's bound address, if one is serving.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().and_then(ObsServer::local_addr)
    }
}

/// Starts the sampler (and listener, when an address was given).
/// Returns `None` when the arguments did not ask for monitoring; exits
/// via `fail` when a requested listener cannot bind.
pub fn start(args: &ObsArgs, fail: &mut dyn FnMut(&str)) -> Option<ObsSession> {
    if !args.on {
        return None;
    }
    let sampler = Sampler::start(args.config());
    let server = match &args.addr {
        Some(addr) => match sampler.serve(addr) {
            Ok(server) => {
                if let Some(bound) = server.local_addr() {
                    eprintln!("obs: serving /metrics /json /health on http://{bound}/");
                }
                Some(server)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Unsupported => None,
            Err(e) => {
                fail(&format!("cannot serve obs endpoint on {addr}: {e}"));
                None
            }
        },
        None => None,
    };
    Some(ObsSession { sampler, server })
}

/// Stops the session, writes the `oll.obs` document if requested, and
/// returns the end-of-run text summary for printing.
pub fn finish(session: ObsSession, json_path: Option<&str>) -> std::io::Result<String> {
    if let Some(server) = session.server {
        server.shutdown();
    }
    let state = session.sampler.stop();
    let health = oll_obs::health::score_all(&state, &HealthConfig::default());
    if let Some(path) = json_path {
        std::fs::write(
            path,
            oll_obs::report::render_obs_json(&state, &health) + "\n",
        )?;
        eprintln!("wrote {path}");
    }
    Ok(oll_obs::report::render_obs_text(&state, &health))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn obs_address_is_optional() {
        let mut args = ObsArgs::default();
        let mut bad = |m: &str| panic!("{m}");
        let v = argv(&["--obs", "--quiet"]);
        let mut i = 0;
        assert!(parse_flag(&v, &mut i, &mut args, &mut bad));
        assert_eq!(i, 0, "a following flag is not an address");
        assert!(args.on);
        assert!(args.addr.is_none());

        let v = argv(&["--obs", "127.0.0.1:9184"]);
        let mut i = 0;
        assert!(parse_flag(&v, &mut i, &mut args, &mut bad));
        assert_eq!(i, 1);
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:9184"));
    }

    #[test]
    fn json_and_interval_take_values() {
        let mut args = ObsArgs::default();
        let mut bad = |m: &str| panic!("{m}");
        let v = argv(&["--obs-json", "out.json", "--obs-interval-ms", "50"]);
        let mut i = 0;
        assert!(parse_flag(&v, &mut i, &mut args, &mut bad));
        i += 1;
        assert!(parse_flag(&v, &mut i, &mut args, &mut bad));
        assert!(args.on);
        assert_eq!(args.json.as_deref(), Some("out.json"));
        assert_eq!(args.interval_ms, Some(50));
        assert_eq!(args.config().interval, Duration::from_millis(50));
    }

    #[test]
    fn bad_interval_reports() {
        let mut args = ObsArgs::default();
        let mut saw = None;
        let v = argv(&["--obs-interval-ms", "zero"]);
        let mut i = 0;
        parse_flag(&v, &mut i, &mut args, &mut |m| saw = Some(m.to_string()));
        assert_eq!(saw.as_deref(), Some("bad --obs-interval-ms"));
    }

    #[test]
    fn other_flags_pass_through() {
        let mut args = ObsArgs::default();
        let v = argv(&["--json", "x"]);
        let mut i = 0;
        assert!(!parse_flag(&v, &mut i, &mut args, &mut |_| {}));
        assert!(!args.on);
    }

    #[test]
    fn off_session_is_none() {
        assert!(start(&ObsArgs::default(), &mut |m| panic!("{m}")).is_none());
    }
}
