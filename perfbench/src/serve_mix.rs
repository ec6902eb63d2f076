//! `serve_mix`: an in-process `Server` on loopback over a fresh
//! `DiskStore`, driven by a closed loop of two client connections.
//!
//! Each client sends a seeded sequence of single-artifact requests
//! (`fig5`, `table4`, `table3` on quick contexts). Every
//! [`COLD_EVERY`]-th request is cold: both clients send the same new
//! key at the same moment (a barrier lines them up), so one request
//! materializes and writes the store while the other rides it as a
//! dedupe. The rest are warm repeats of keys answered once while the
//! store was primed.
//!
//! The mix (one cold pair in every [`COLD_EVERY`] requests,
//! [`WARM_SEEDS`] warm keys per artifact, the three artifacts with
//! equal weight) is an assumption: there is no recorded serve traffic
//! to fit it to.
//!
//! One pass is [`PER_CLIENT`] requests per client to a server started
//! for the pass over the primed store; passes repeat while another fits
//! in `--seconds`, each with fresh cold keys.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, RenderedArtifact};
use mpvar_serve::{Client, Dispatcher, JobEvent, ProgressRouter, Server};
use mpvar_study::{ArtifactId, ArtifactStore, DiskStore, MemoryStore, Study};

use crate::measure::{median, tail, timed, Passes};
use crate::metrics::{Report, Set, SPICE_FIGURES};
use crate::trace::{bench_span, Recording};
use crate::{layers, mix, probes, Run};

/// Artifacts the request mix draws from: a large-reply histogram
/// (`fig5`), a small Monte-Carlo table (`table4`) and a table behind
/// the corner search and SPICE worst-case chain (`table3`).
const ARTIFACTS: [ArtifactId; 3] = [ArtifactId::Fig5, ArtifactId::Table4, ArtifactId::Table3];
/// Context seeds per artifact in the warm key set.
const WARM_SEEDS: u64 = 2;
/// Times each client sends each warm key per pass.
const WARM_REPEATS: usize = 3;
/// One request in this many is cold (sent by both clients at once): a
/// pass sends every warm key [`WARM_REPEATS`] times between its cold
/// requests.
const COLD_EVERY: usize = 1 + WARM_SEEDS as usize * WARM_REPEATS;
/// Requests per client per pass: one cold pair per artifact.
const PER_CLIENT: usize = ARTIFACTS.len() * COLD_EVERY;
/// Upper bound on how long teardown waits for in-flight waves.
const DRAIN: Duration = Duration::from_secs(60);

/// A request's cache identity: the artifact and its context seed.
type Key = (ArtifactId, u64);

/// One planned request.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Planned {
    key: Key,
    cold: bool,
}

/// A context seed below 2^31 (the wire carries numbers as JSON, so
/// seeds stay well inside the exactly representable range).
fn context_seed(h: u64) -> u64 {
    h % (1 << 31)
}

/// The warm key set of input seed `seed`.
fn warm_keys(seed: u64) -> Vec<Key> {
    let mut keys = Vec::new();
    for (a, &id) in ARTIFACTS.iter().enumerate() {
        for j in 0..WARM_SEEDS {
            keys.push((
                id,
                context_seed(mix(seed ^ mix(0x5741_524d + a as u64 * 31 + j))),
            ));
        }
    }
    keys
}

/// Shuffles `v` in place (Fisher-Yates) with the stream of `h`.
fn shuffle<T>(v: &mut [T], mut h: u64) {
    for i in (1..v.len()).rev() {
        h = mix(h);
        v.swap(i, (h % (i as u64 + 1)) as usize);
    }
}

/// Pass `pass` of input seed `seed`: one request sequence per client.
/// Every pass has the same make-up, so passes cost alike: per client,
/// each warm key [`WARM_REPEATS`] times and one new key per artifact,
/// the new keys shared by both clients. The seed draws the order and
/// the new keys' context seeds.
fn plan(seed: u64, pass: u64, warm: &[Key]) -> [Vec<Planned>; 2] {
    let h = |i: u64| mix(seed ^ mix(pass << 16 | i));
    // New keys take their seeds from a range of their own, so they
    // never meet a warm key.
    let mut cold: Vec<Key> = (0u64..)
        .zip(ARTIFACTS)
        .map(|(a, id)| (id, (1 << 31) + context_seed(h(a))))
        .collect();
    shuffle(&mut cold, h(100));
    let mut plans = [Vec::new(), Vec::new()];
    for (c, p) in (0u64..).zip(plans.iter_mut()) {
        let mut repeats: Vec<Key> = warm
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, WARM_REPEATS))
            .collect();
        shuffle(&mut repeats, h(200 + c));
        let (mut repeats, mut cold) = (repeats.into_iter(), cold.iter());
        for i in 0..PER_CLIENT {
            let planned = if i % COLD_EVERY == COLD_EVERY - 1 {
                cold.next().map(|&key| Planned { key, cold: true })
            } else {
                repeats.next().map(|key| Planned { key, cold: false })
            };
            p.push(planned.expect("the pass's make-up fills it exactly"));
        }
    }
    plans
}

fn spec(seed: u64) -> ContextSpec {
    ContextSpec {
        seed: Some(seed),
        ..ContextSpec::default()
    }
}

fn request(id: String, key: Key) -> AnalysisRequest {
    AnalysisRequest {
        id,
        artifacts: vec![key.0],
        context: spec(key.1),
        progress: false,
    }
}

/// A reply: the rendered artifacts, or the error text.
type Reply = Result<Vec<RenderedArtifact>, String>;

/// One answered request.
struct Answer {
    key: Key,
    cold: bool,
    latency_ms: f64,
    reply: Reply,
}

/// A dispatcher over the disk store at `dir`.
fn dispatcher(dir: &Path) -> Result<Arc<Dispatcher>, String> {
    let store: Arc<dyn ArtifactStore> =
        Arc::new(DiskStore::open(dir).map_err(|e| format!("disk store: {e}"))?);
    Ok(Arc::new(Dispatcher::new(
        store,
        Arc::new(ProgressRouter::new()),
    )))
}

/// A running server with its two client connections.
struct Rig {
    server: Server,
    clients: [Client; 2],
}

impl Rig {
    /// The set-up of a pass: the disk store at `dir`, a dispatcher, the
    /// server on a loopback port and two connections to it.
    fn start(dir: &Path) -> Result<Rig, String> {
        let server =
            Server::start("127.0.0.1:0", dispatcher(dir)?).map_err(|e| format!("bind: {e}"))?;
        let connect = || Client::connect(server.addr()).map_err(|e| format!("connect: {e}"));
        let clients = [connect()?, connect()?];
        Ok(Rig { server, clients })
    }

    fn stop(self) {
        drop(self.clients);
        self.server.stop();
        self.server.join(DRAIN);
    }
}

/// Asks over a client connection; the latency is what the client sees.
fn over_socket(client: &mut Client) -> impl FnMut(AnalysisRequest) -> Reply + Send + '_ {
    move |req| {
        let _span = bench_span("serve.client_request", 1);
        client.request(req, |_| {}).map_err(|e| e.to_string())
    }
}

/// Asks `dispatcher` in process, without a socket: `submit` → `Done`.
fn in_process(dispatcher: &Arc<Dispatcher>) -> impl FnMut(AnalysisRequest) -> Reply + Send + '_ {
    move |req| {
        let handle = dispatcher.submit(&req)?;
        for event in handle.events {
            if let JobEvent::Done(done) = event {
                return done;
            }
        }
        Err("job ended without an answer".to_string())
    }
}

/// Sends `plans` closed loop, client `c` through `asks[c]` on a thread
/// of its own, and returns every answer with its latency. Cold requests
/// wait at a barrier so both halves of a pair are sent together.
fn closed_loop<A>(plans: &[Vec<Planned>; 2], tag: &str, asks: [A; 2]) -> Vec<Answer>
where
    A: FnMut(AnalysisRequest) -> Reply + Send,
{
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = asks
            .into_iter()
            .zip(plans.iter())
            .enumerate()
            .map(|(c, (mut ask, plan))| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Vec::with_capacity(plan.len());
                    for (i, p) in plan.iter().enumerate() {
                        if p.cold {
                            barrier.wait();
                        }
                        let req = request(format!("{tag}-c{c}-r{i}"), p.key);
                        let t0 = Instant::now();
                        let reply = ask(req);
                        out.push(Answer {
                            key: p.key,
                            cold: p.cold,
                            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Answers every warm key once (cold), returning the reference replies.
fn prime(
    warm: &[Key],
    mut ask: impl FnMut(AnalysisRequest) -> Reply,
) -> Result<BTreeMap<Key, Vec<RenderedArtifact>>, String> {
    let mut refs = BTreeMap::new();
    for (i, &key) in warm.iter().enumerate() {
        let reply = ask(request(format!("prime-{i}"), key))
            .map_err(|e| format!("priming {}: {e}", key.0.name()))?;
        refs.insert(key, reply);
    }
    Ok(refs)
}

/// Fills the disk store at `dir` with every warm key, asked once over
/// the socket, and returns the replies: the reference for every warm
/// reply.
fn prime_store(dir: &Path, warm: &[Key]) -> Result<BTreeMap<Key, Vec<RenderedArtifact>>, String> {
    let mut rig = Rig::start(dir)?;
    let refs = prime(warm, over_socket(&mut rig.clients[0]));
    rig.stop();
    refs
}

/// Renders `key` in process through a fresh `Study`, as the service
/// should have.
fn render_in_process(key: Key) -> Result<Vec<RenderedArtifact>, String> {
    let ctx = spec(key.1).build().map_err(|e| e.to_string())?;
    let study = Study::with_store(ctx, Arc::new(MemoryStore::new()));
    let arts = study.run(&[key.0]).map_err(|e| e.to_string())?;
    Ok(arts
        .into_iter()
        .map(|a| RenderedArtifact {
            id: a.id,
            text: a.text,
            csv: a.csv,
        })
        .collect())
}

/// Verifies answers: no errors; each warm reply equals its key's
/// priming reply byte for byte; both halves of a cold pair agree; and
/// with `render`, every cold key matches an in-process render.
fn verify(
    answers: &[Answer],
    refs: &BTreeMap<Key, Vec<RenderedArtifact>>,
    render: bool,
    report: &mut Report,
) {
    let mut cold: BTreeMap<Key, &Vec<RenderedArtifact>> = BTreeMap::new();
    for a in answers {
        let name = a.key.0.name();
        match &a.reply {
            Err(e) => report.check(false, || {
                format!("{name} seed {}: error reply: {e}", a.key.1)
            }),
            Ok(reply) if a.cold => match cold.get(&a.key) {
                Some(first) => report.check(*first == reply, || {
                    format!("{name} seed {}: cold pair replies differ", a.key.1)
                }),
                None => {
                    cold.insert(a.key, reply);
                    report.succeeded(1);
                }
            },
            Ok(reply) => report.check(refs.get(&a.key) == Some(reply), || {
                format!(
                    "{name} seed {}: warm reply differs from its cold reply",
                    a.key.1
                )
            }),
        }
    }
    for (&key, &reply) in cold.iter().filter(|_| render) {
        let same = render_in_process(key).is_ok_and(|r| &r == reply);
        report.check(same, || {
            format!(
                "{} seed {}: reply differs from in-process render",
                key.0.name(),
                key.1
            )
        });
    }
}

/// Latencies of answered requests by kind, ms. Replies are verified
/// and dropped after each pass, so the benchmark's own memory does not
/// grow with the pass count.
#[derive(Debug, Default)]
struct Latencies {
    warm: Vec<f64>,
    cold: Vec<f64>,
}

impl Latencies {
    fn add(&mut self, answers: &[Answer]) {
        for a in answers {
            let to = if a.cold {
                &mut self.cold
            } else {
                &mut self.warm
            };
            to.push(a.latency_ms);
        }
    }
}

pub fn run(run: &Run, report: &mut Report) -> Result<(), String> {
    let scratch = run.scratch_dir();
    let store = scratch.join("store");
    let warm = warm_keys(run.seed);
    let refs = prime_store(&store, &warm)?;

    // Timed passes; a traced run spends half its budget here and the
    // rest on the traced pass, the in-process replay and the probes.
    let budget = match report.set() {
        Set::EndToEnd => run.seconds,
        Set::PerLayer => run.seconds / 2.0,
    };
    let started = Instant::now();
    let (mut passes, mut client) = (Passes::default(), Latencies::default());
    let mut pass = 0u64;
    while passes.another(started, budget) {
        let mut rig = passes.set_up(|| Rig::start(&store))?;
        let plans = plan(run.seed, pass, &warm);
        let asks = rig.clients.each_mut().map(over_socket);
        let answers = passes.time(|| closed_loop(&plans, &format!("p{pass}"), asks));
        rig.stop();
        // The first pass's new keys, one per artifact, are also
        // rendered in process.
        verify(&answers, &refs, pass == 0, report);
        client.add(&answers);
        pass += 1;
    }
    passes.log(&run.workload, report);

    match report.set() {
        Set::EndToEnd => passes.put_end_to_end(report, 2 * PER_CLIENT),
        Set::PerLayer => {
            report.put("req_per_s", passes.rate(2 * PER_CLIENT));
            report.put("warm_p50_ms", median(&client.warm));
            report.put("warm_tail_ms", tail(&client.warm).map_or(0.0, |t| t.1));
            report.put("warm_samples", client.warm.len() as f64);
            report.put("cold_p50_ms", median(&client.cold));
            report.put("cold_tail_ms", tail(&client.cold).map_or(0.0, |t| t.1));
            report.put("cold_samples", client.cold.len() as f64);
            report.put("exec.util", passes.util(run.threads));
            report.put_zero(&SPICE_FIGURES);
            report.put_zero(&["yield_trials"]);

            // One traced pass.
            let mut rig = Rig::start(&store)?;
            let plans = plan(run.seed, pass, &warm);
            let asks = rig.clients.each_mut().map(over_socket);
            let recording = Recording::start();
            let (got, t) = timed(|| closed_loop(&plans, "traced", asks));
            let body = recording.finish(&run.trace_path("body"));
            rig.stop();
            verify(&got, &refs, false, report);
            report.put(
                "trace_overhead_pct",
                (t.wall_s / median(&passes.walls) - 1.0) * 100.0,
            );
            layers::fill(&body, report);

            // The same passes replayed in process, without a socket, each
            // on a dispatcher of its own over a store primed the same way.
            let replay_store = scratch.join("replay-store");
            let replay_refs = prime(&warm, in_process(&dispatcher(&replay_store)?))?;
            report.check(replay_refs == refs, || {
                "in-process priming replies differ from the served ones".to_string()
            });
            let mut replayed = Latencies::default();
            for p in 0..pass {
                let d = dispatcher(&replay_store)?;
                let plans = plan(run.seed, p, &warm);
                let answers =
                    closed_loop(&plans, &format!("d{p}"), [in_process(&d), in_process(&d)]);
                d.wait_idle(DRAIN);
                verify(&answers, &refs, false, report);
                replayed.add(&answers);
            }
            report.put("serve.dispatch_ms.warm_p50", median(&replayed.warm));
            report.put(
                "serve.dispatch_ms.warm_tail",
                tail(&replayed.warm).map_or(0.0, |t| t.1),
            );
            report.put("serve.dispatch_ms.cold_p50", median(&replayed.cold));
            report.put(
                "serve.transport_ms.warm_p50",
                median(&client.warm) - median(&replayed.warm),
            );

            // Layer probes on this workload's inputs and artifacts.
            let ctx = spec(warm[0].1).build().map_err(|e| e.to_string())?;
            let mut artifacts = Vec::new();
            for &(id, seed) in &warm {
                let s = Study::with_store(
                    spec(seed).build().map_err(|e| e.to_string())?,
                    Arc::new(MemoryStore::new()),
                );
                let value = s.artifact(id).map_err(|e| e.to_string())?;
                artifacts.push((s.key_of(id), value));
            }
            let recording = Recording::start();
            let probed = probes::all(&ctx, ctx.mc.seed, &artifacts, &scratch, report);
            recording.finish(&run.trace_path("probes"));
            probed?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pass_has_the_same_make_up() {
        let warm = warm_keys(7);
        for pass in 0..4 {
            let plans = plan(7, pass, &warm);
            assert_eq!(plans, plan(7, pass, &warm), "the seed fixes the plan");
            for p in &plans {
                assert_eq!(p.len(), PER_CLIENT);
                for key in &warm {
                    let n = p.iter().filter(|r| !r.cold && r.key == *key).count();
                    assert_eq!(n, WARM_REPEATS);
                }
                let mut cold: Vec<ArtifactId> =
                    p.iter().filter(|r| r.cold).map(|r| r.key.0).collect();
                cold.sort();
                let mut all = ARTIFACTS.to_vec();
                all.sort();
                assert_eq!(cold, all);
                assert!(p.iter().filter(|r| r.cold).all(|r| !warm.contains(&r.key)));
            }
            let cold = |p: &Vec<Planned>| -> Vec<(usize, Key)> {
                (0..)
                    .zip(p)
                    .filter(|(_, r)| r.cold)
                    .map(|(i, r)| (i, r.key))
                    .collect()
            };
            assert_eq!(cold(&plans[0]), cold(&plans[1]), "cold pairs line up");
        }
        assert_ne!(plan(7, 0, &warm), plan(7, 1, &warm));
    }
}
