//! `serve-edit`: an `ipcp serve` daemon at a tenant byte budget small
//! enough that LRU eviction runs, driven by a closed loop of edit
//! cycles on one connection per client. A cycle analyzes a freshly
//! edited program (a new tenant), explains the edited leaf's formal,
//! and analyzes the same source again (a memo hit).

use crate::layers::Ledger;
use crate::run::{repeated_setup, splitmix, traces_op, Failure, Measured, Opts, Samples};
use crate::scale_cold::{analyze_op, expected, poly, scale_source, CallSite};
use ipcp::core::serve::{parse_response, request_line, Client};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Tenant byte budget per generated procedure. A tenant's estimated
/// footprint after one analysis is about 8.6 KB per procedure, so the
/// budget holds about two analysed tenants: each new edit evicts one.
const TENANT_BYTES_PER_PROC: u64 = 20_000;

/// Directory, relative to the working directory, of the daemon's socket.
const RUN_DIR: &str = ".perfbench-run";

/// Edited sources replayed in process by a traced run to attribute the
/// daemon's edit request to layers.
const REPLAYS: usize = 2;

/// A daemon child process running `perfbench serve`, which is
/// `ipcp serve`. Dropping it shuts the daemon down and waits for it.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon and waits until it accepts connections.
    pub fn start(opts: &Opts, tag: u64) -> Result<Daemon, String> {
        std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("cannot create {RUN_DIR}: {e}"))?;
        let socket = Path::new(RUN_DIR).join(format!("serve-{}-{tag}.sock", std::process::id()));
        let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
        let budget = TENANT_BYTES_PER_PROC * opts.procs as u64;
        let child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", &opts.jobs.to_string()])
            .args(["--max-tenant-bytes", &budget.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let daemon = Daemon { child, socket };
        Client::connect(&daemon.socket).map_err(|e| format!("daemon never accepted: {e}"))?;
        Ok(daemon)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(&self.socket) {
            let _ = client.call_raw(&request_line(0, "shutdown", &[]));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

/// One client connection, reconnecting after a broken transport.
struct Conn {
    socket: PathBuf,
    client: Option<Client>,
    next_id: u64,
}

/// One request's round trip.
struct Reply {
    raw: String,
    output: String,
    wall: Duration,
    request_bytes: usize,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let client = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            socket: socket.to_path_buf(),
            client: Some(client),
            next_id: 1,
        })
    }

    /// Sends one request; a transport failure or an error response
    /// (`overloaded` included) is a [`Failure::Error`].
    fn call(&mut self, op: &str, fields: &[(&str, &str)]) -> Result<Reply, Failure> {
        let line = request_line(self.next_id, op, fields);
        self.next_id += 1;
        if self.client.is_none() {
            let client = Client::connect(&self.socket)
                .map_err(|e| Failure::Error(format!("reconnect: {e}")))?;
            self.client = Some(client);
        }
        let client = self.client.as_mut().expect("connected above");
        let start = Instant::now();
        let raw = client.call_raw(&line).map_err(|e| {
            self.client = None;
            Failure::Error(format!("transport: {e}"))
        })?;
        let wall = start.elapsed();
        let response = parse_response(&raw).map_err(Failure::Error)?;
        if !response.ok {
            return Err(Failure::Error(format!("{op}: {}", response.text)));
        }
        Ok(Reply {
            raw,
            output: response.text,
            wall,
            request_bytes: line.len() + 1,
        })
    }
}

/// An edited program: one hub call-site literal changed.
#[derive(Debug, Clone)]
pub struct Edit {
    /// The edited source.
    pub source: String,
    /// The leaf whose call-site literal changed.
    pub leaf: String,
    /// The new literal.
    pub value: i64,
}

/// Edit `k` of a run: a seeded call site gets a literal no other edit
/// and no generated call site uses (generated literals are below 1000),
/// so every edit is a new tenant.
pub fn edit(base: &str, calls: &[CallSite], seed: u64, k: u64) -> Edit {
    let r = splitmix(seed ^ splitmix(k));
    let call = &calls[(r % calls.len() as u64) as usize];
    let value = 1000 * (k as i64 + 1) + (r >> 32) as i64 % 1000;
    let mut source = String::with_capacity(base.len() + 8);
    source.push_str(&base[..call.literal.start]);
    source.push_str(&value.to_string());
    source.push_str(&base[call.literal.end..]);
    Edit {
        source,
        leaf: call.leaf.clone(),
        value,
    }
}

/// The substitution total of an `analyze` report.
pub fn substitution_total(report: &str) -> Option<usize> {
    report
        .lines()
        .rev()
        .find_map(|l| l.strip_suffix("  total"))
        .and_then(|n| n.trim().parse().ok())
}

/// The wire response without its `{"id":N,` prefix.
fn without_id(raw: &str) -> &str {
    raw.split_once(',').map_or(raw, |(_, tail)| tail)
}

/// Checks one cycle's three responses: the edit and the explain both
/// name the new literal, the repeated analyze is byte-identical to the
/// edit response, and the substitution total is the unedited program's.
pub fn check_cycle(
    edit: &Edit,
    analyzed: &str,
    explained: &str,
    warm_raw: &str,
    edit_raw: &str,
    base_total: usize,
) -> Result<(), String> {
    let reported = crate::scale_cold::reported(analyzed);
    let p = reported
        .get(edit.leaf.as_str())
        .and_then(|set| set.get("p"));
    if p.and_then(|v| v.parse::<i64>().ok()) != Some(edit.value) {
        return Err(format!(
            "analyze: {}.p = {p:?}, edited to {}",
            edit.leaf, edit.value
        ));
    }
    let named = format!("{}.p = {}", edit.leaf, edit.value);
    let first = explained.lines().next().unwrap_or_default();
    let rest = first.strip_prefix(&named);
    if rest.is_none_or(|r| r.starts_with(|c: char| c.is_ascii_digit())) {
        return Err(format!("explain: `{first}` does not name {named}"));
    }
    if without_id(warm_raw) != without_id(edit_raw) {
        return Err("the repeated analyze is not byte-identical to the edit response".into());
    }
    let total = substitution_total(analyzed);
    if total != Some(base_total) {
        return Err(format!(
            "substitution total {total:?}, unedited program {base_total}"
        ));
    }
    Ok(())
}

/// One edit cycle on `conn`.
fn cycle(
    conn: &mut Conn,
    edit: &Edit,
    base_total: usize,
    ledger: Option<&mut Ledger>,
) -> Result<Duration, Failure> {
    let start = Instant::now();
    let source = [("source", edit.source.as_str())];
    let analyzed = conn.call("analyze", &source)?;
    let explained = conn.call(
        "explain",
        &[
            ("source", edit.source.as_str()),
            ("proc", edit.leaf.as_str()),
            ("param", "p"),
        ],
    )?;
    let warm = conn.call("analyze", &source)?;
    let wall = start.elapsed();
    if let Some(l) = ledger {
        for (name, reply) in [
            ("serve.edit_ms", &analyzed),
            ("serve.explain_ms", &explained),
            ("serve.warm_ms", &warm),
        ] {
            l.add_time(name, reply.wall);
            l.add(
                "serve.request_kib",
                reply.request_bytes as f64 / 1024.0 / 3.0,
            );
            l.add(
                "serve.response_kib",
                (reply.raw.len() + 1) as f64 / 1024.0 / 3.0,
            );
        }
    }
    check_cycle(
        edit,
        &analyzed.output,
        &explained.output,
        &warm.raw,
        &analyzed.raw,
        base_total,
    )
    .map_err(Failure::Incorrect)?;
    Ok(wall)
}

/// The daemon's `metrics` figures the ledger reads, by series name.
fn daemon_metrics(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    let reply = conn
        .call("metrics", &[])
        .map_err(|f| format!("metrics: {f}"))?;
    Ok(reply
        .output
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(series, value)| Some((series.to_string(), value.parse().ok()?)))
        .collect())
}

fn series(metrics: &BTreeMap<String, f64>, name: &str) -> f64 {
    metrics.get(name).copied().unwrap_or(0.0)
}

/// The daemon's mean latency of `op` between two `metrics` snapshots,
/// in ms, and the number of requests it covers.
fn daemon_latency(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    op: &str,
) -> (f64, f64) {
    let sum = format!("ipcp_serve_request_latency_microseconds_sum{{op=\"{op}\"}}");
    let count = format!("ipcp_serve_request_latency_microseconds_count{{op=\"{op}\"}}");
    let d_sum = series(after, &sum) - series(before, &sum);
    let d_count = series(after, &count) - series(before, &count);
    (d_sum / 1e3, d_count)
}

/// A started daemon with its clients and the unedited program.
struct Fixture {
    // Fields drop in order: the clients disconnect before the daemon
    // shuts down.
    conns: Vec<Conn>,
    daemon: Daemon,
    base: String,
    calls: Vec<CallSite>,
    base_total: usize,
}

fn setup(opts: &Opts, clients: usize, tag: u64) -> Result<Fixture, String> {
    let base = scale_source(opts);
    let calls = expected(&base)?.calls;
    let daemon = Daemon::start(opts, tag)?;
    let mut conns = (0..clients)
        .map(|_| Conn::open(&daemon.socket))
        .collect::<Result<Vec<_>, _>>()?;
    let reply = conns[0]
        .call("analyze", &[("source", base.as_str())])
        .map_err(|f| format!("unedited analyze: {f}"))?;
    let base_total = substitution_total(&reply.output).ok_or("unedited analyze has no total")?;
    // The warm-up op: edit 0, which the timed window never repeats.
    let warm_up = edit(&base, &calls, opts.seed, 0);
    cycle(&mut conns[0], &warm_up, base_total, None).map_err(|f| format!("warm-up op: {f}"))?;
    Ok(Fixture {
        conns,
        daemon,
        base,
        calls,
        base_total,
    })
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Measured, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = 2.min(nproc);
    let mut tag = 0;
    let (mut fx, setup_s) = repeated_setup(|| {
        tag += 1;
        setup(opts, clients, tag)
    })?;
    let pid = fx.daemon.pid();
    let before = daemon_metrics(&mut fx.conns[0])?;
    let cpu_before = crate::procfs::cpu_ms(pid)?;
    let next = AtomicU64::new(1);
    let start = Instant::now();
    let (fx_base, fx_calls, base_total) = (&fx.base, &fx.calls, fx.base_total);
    let results: Vec<(Samples, Ledger)> = std::thread::scope(|s| {
        let workers: Vec<_> = fx
            .conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut samples = Samples::default();
                    let mut ledger = Ledger::default();
                    while start.elapsed().as_secs_f64() < opts.seconds {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let traced = traces_op(opts, k);
                        let e = edit(fx_base, fx_calls, opts.seed, k);
                        let result = cycle(conn, &e, base_total, traced.then_some(&mut ledger));
                        if traced {
                            ledger.finish_op();
                        }
                        samples.record(traced, result);
                    }
                    (samples, ledger)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let cpu_ms = crate::procfs::cpu_ms(pid)? - cpu_before;
    let after = daemon_metrics(&mut fx.conns[0])?;
    let peak_rss_kib = crate::procfs::peak_rss_kib(pid)?;

    let mut samples = Samples::default();
    let mut client = Ledger::default();
    for (s, l) in results {
        samples.merge(s);
        client.absorb(l);
    }
    let mut layers = BTreeMap::new();
    if opts.trace {
        // The daemon's own layers are out of the client's reach: replay
        // the first edits in this process, after the timed window.
        let mut replay = Ledger::default();
        for k in 1..=REPLAYS as u64 {
            let e = edit(&fx.base, &fx.calls, opts.seed, k);
            analyze_op(&e.source, &poly(opts.jobs), Some(&mut replay))?;
            provenance(&e, opts.jobs, &mut replay)?;
            replay.finish_op();
        }
        layers = replay.per_op();
        let serve = client.per_op();
        for (name, value) in serve.iter().filter(|(n, _)| n.starts_with("serve.")) {
            layers.insert(name, *value);
        }
        let (analyze_ms, analyzes) = daemon_latency(&before, &after, "analyze");
        let (explain_ms, explains) = daemon_latency(&before, &after, "explain");
        layers.insert("serve.daemon_analyze_ms", analyze_ms / analyzes.max(1.0));
        layers.insert("serve.daemon_explain_ms", explain_ms / explains.max(1.0));
        let daemon_per_request = (analyze_ms + explain_ms) / (analyzes + explains).max(1.0);
        let client_per_request =
            (serve["serve.edit_ms"] + serve["serve.explain_ms"] + serve["serve.warm_ms"]) / 3.0;
        layers.insert(
            "serve.transport_ms",
            client_per_request - daemon_per_request,
        );
        let evictions = "ipcp_serve_tenant_evictions_total";
        layers.insert(
            "serve.evictions",
            series(&after, evictions) - series(&before, evictions),
        );
        layers.insert(
            "serve.tenants_resident",
            series(&after, "ipcp_serve_tenants"),
        );
    }
    drop(fx);
    Ok(Measured {
        setup_s,
        samples,
        window_s,
        cpu_ms,
        peak_rss_kib,
        layers,
        partitioned: false,
    })
}

/// What the daemon's `explain` does for an edit, spanned: the
/// provenance pipeline, then the explanation of the leaf's formal.
fn provenance(e: &Edit, jobs: usize, ledger: &mut Ledger) -> Result<(), String> {
    let program = ipcp::ir::compile_to_ir(&e.source).map_err(|d| d.render(&e.source))?;
    let prov = ledger.span("provenance.analyze_ms", || {
        ipcp::core::provenance::analyze_provenance(&program, &poly(jobs))
    });
    let text = ledger.span("provenance.explain_ms", || prov.explain(&e.leaf, Some("p")))?;
    if !text.starts_with(&format!("{}.p = {}", e.leaf, e.value)) {
        return Err(format!("replayed explain does not name the edit: {text}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipcp::suite::{generate_scale, ScaleSpec};

    #[test]
    fn edits_are_distinct_and_change_one_literal() {
        let base = generate_scale(&ScaleSpec::with_procs(300, 3)).source;
        let calls = expected(&base).unwrap().calls;
        let a = edit(&base, &calls, 9, 1);
        let b = edit(&base, &calls, 9, 2);
        assert_ne!(a.source, b.source);
        assert_eq!(edit(&base, &calls, 9, 1).source, a.source);
        assert!(a.source.contains(&format!("call {}({})", a.leaf, a.value)));
        assert_eq!(a.source.lines().count(), base.lines().count());
    }

    #[test]
    fn rejects_a_warm_response_that_is_not_byte_identical() {
        let base = generate_scale(&ScaleSpec::with_procs(300, 3)).source;
        let calls = expected(&base).unwrap().calls;
        let config = poly(1);
        let total = substitution_total(&analyze_op(&base, &config, None).unwrap()).unwrap();
        let e = edit(&base, &calls, 4, 7);
        let analyzed = analyze_op(&e.source, &config, None).unwrap();
        let explained = ipcp::core::serve::render_explain(
            &ipcp::ir::compile_to_ir(&e.source).unwrap(),
            &config,
            &e.leaf,
            Some("p"),
        )
        .unwrap();
        let raw = |id: u64, text: &str| {
            format!(
                "{{\"id\":{id},\"ok\":true,\"output\":\"{}\"}}",
                text.replace('\n', "\\n")
            )
        };
        let edit_raw = raw(1, &analyzed);
        check_cycle(
            &e,
            &analyzed,
            &explained,
            &raw(3, &analyzed),
            &edit_raw,
            total,
        )
        .expect("identical warm passes");
        let altered = raw(3, &analyzed.replacen("total", "total ", 1));
        let err = check_cycle(&e, &analyzed, &explained, &altered, &edit_raw, total).unwrap_err();
        assert!(err.contains("byte-identical"), "{err}");
        let wrong = explained.replacen(&e.value.to_string(), &(e.value + 1).to_string(), 1);
        assert!(check_cycle(&e, &analyzed, &wrong, &edit_raw, &edit_raw, total).is_err());
    }
}
