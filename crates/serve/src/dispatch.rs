//! The job dispatcher: one shared [`ArtifactStore`], request dedupe,
//! and wave batching.
//!
//! Requests are grouped by **context fingerprint** (the same
//! content-keyed identity the store itself uses, so "compatible" here
//! means *provably result-identical*). Per fingerprint the dispatcher
//! keeps at most one **running wave** — a single `Study::materialize`
//! call on a worker thread — plus a **pending wave** accumulating the
//! requests that arrived too late to join it:
//!
//! * A request whose artifact set is a subset of the running wave's
//!   joins it as an extra waiter (**dedupe** — no second
//!   materialization, `serve.deduped`).
//! * Any other compatible request lands in the pending wave, merging
//!   its artifact set with whatever else is waiting (**batching** —
//!   `serve.batched` counts the requests that shared a wave with an
//!   earlier one).
//! * When the running wave finishes it answers every waiter (each gets
//!   exactly the artifacts it asked for, in its own request order),
//!   then promotes the pending wave, if any, on the same thread.
//!
//! Because every wave runs against the shared store, even requests
//! that miss the dedupe window are answered from cache at
//! near-zero cost — dedupe and batching save redundant *in-flight*
//! work; the store saves redundant *repeated* work.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mpvar_core::experiments::ExperimentContext;
use mpvar_study::{context_fingerprint, ArtifactId, ArtifactStore, Study};
use mpvar_trace::names;

use crate::progress::{JobEvent, ProgressRouter};
use crate::protocol::{AnalysisRequest, RenderedArtifact};
use crate::telemetry::{RequestOutcome, ServeStats, ServeTelemetry};

/// A submitted job: its cache identity and its event stream (zero or
/// more [`JobEvent::Progress`], then one [`JobEvent::Done`]).
#[derive(Debug)]
pub struct JobHandle {
    /// Context fingerprint the job was grouped under.
    pub fingerprint: u64,
    /// Event stream for this job.
    pub events: Receiver<JobEvent>,
}

struct Waiter {
    artifacts: Vec<ArtifactId>,
    tx: Sender<JobEvent>,
    submitted: Instant,
    deduped: bool,
}

struct PendingJob {
    ctx: ExperimentContext,
    progress: bool,
    waiter: Waiter,
}

struct RunningWave {
    label: String,
    artifacts: BTreeSet<ArtifactId>,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct WaveState {
    running: Option<RunningWave>,
    pending: Vec<PendingJob>,
    pending_artifacts: BTreeSet<ArtifactId>,
}

#[derive(Default)]
struct DispatchCounters {
    requests: AtomicU64,
    deduped: AtomicU64,
    batched: AtomicU64,
    materializations: AtomicU64,
}

/// The serve-side scheduler. Cheap to share (`Arc`); every method
/// takes `&self`.
pub struct Dispatcher {
    store: Arc<dyn ArtifactStore>,
    router: Arc<ProgressRouter>,
    waves: Mutex<HashMap<u64, WaveState>>,
    counters: DispatchCounters,
    telemetry: ServeTelemetry,
    wave_seq: AtomicU64,
    active: Mutex<usize>,
    idle: Condvar,
}

impl Dispatcher {
    /// A dispatcher materializing into `store` and streaming progress
    /// through `router`.
    pub fn new(store: Arc<dyn ArtifactStore>, router: Arc<ProgressRouter>) -> Self {
        Self {
            store,
            router,
            waves: Mutex::new(HashMap::new()),
            counters: DispatchCounters::default(),
            telemetry: ServeTelemetry::new(),
            wave_seq: AtomicU64::new(0),
            active: Mutex::new(0),
            idle: Condvar::new(),
        }
    }

    /// The shared artifact store waves materialize into.
    pub fn store(&self) -> &Arc<dyn ArtifactStore> {
        &self.store
    }

    /// The progress router waves are labelled for.
    pub fn router(&self) -> &Arc<ProgressRouter> {
        &self.router
    }

    /// Accepts a request: joins a running wave, joins the pending
    /// wave, or starts a new one.
    ///
    /// # Errors
    ///
    /// A description when the request's context cannot be built.
    pub fn submit(self: &Arc<Self>, request: &AnalysisRequest) -> Result<JobHandle, String> {
        let ctx = request.context.build().map_err(|e| {
            self.telemetry.record_error();
            format!("invalid context: {e}")
        })?;
        let fingerprint = context_fingerprint(&ctx);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        mpvar_trace::counter_add(names::SERVE_REQUESTS, 1);

        let (tx, rx) = channel();
        let mut waiter = Waiter {
            artifacts: request.artifacts.clone(),
            tx: tx.clone(),
            submitted: Instant::now(),
            deduped: false,
        };

        let mut waves = self.waves.lock().expect("dispatcher waves lock poisoned");
        let state = waves.entry(fingerprint).or_default();

        if let Some(running) = &mut state.running {
            let covered = request
                .artifacts
                .iter()
                .all(|a| running.artifacts.contains(a));
            if covered {
                // Dedupe: ride the in-flight materialization.
                if request.progress {
                    self.router.attach(&running.label, tx);
                }
                waiter.deduped = true;
                running.waiters.push(waiter);
                self.counters.deduped.fetch_add(1, Ordering::Relaxed);
                mpvar_trace::counter_add(names::SERVE_DEDUPED, 1);
            } else {
                // Batch: merge into the pending wave behind it.
                if !state.pending.is_empty() {
                    self.counters.batched.fetch_add(1, Ordering::Relaxed);
                    mpvar_trace::counter_add(names::SERVE_BATCHED, 1);
                }
                state.pending_artifacts.extend(request.artifacts.iter());
                state.pending.push(PendingJob {
                    ctx,
                    progress: request.progress,
                    waiter,
                });
            }
            return Ok(JobHandle {
                fingerprint,
                events: rx,
            });
        }

        // Cold: start a wave for this request alone.
        let label = self.next_label();
        if request.progress {
            self.router.attach(&label, tx);
        }
        state.running = Some(RunningWave {
            label: label.clone(),
            artifacts: request.artifacts.iter().copied().collect(),
            waiters: vec![waiter],
        });
        drop(waves);

        {
            let mut active = self.active.lock().expect("dispatcher active lock poisoned");
            *active += 1;
        }
        // Without a thread of its own the wave runs here: slower for
        // this caller, but every waiter is answered and `active` drops.
        let dispatcher = Arc::clone(self);
        spawn_or_run(label.clone(), move || {
            dispatcher.run_waves(fingerprint, ctx, label);
            let mut active = dispatcher
                .active
                .lock()
                .expect("dispatcher active lock poisoned");
            *active -= 1;
            dispatcher.idle.notify_all();
        });

        Ok(JobHandle {
            fingerprint,
            events: rx,
        })
    }

    /// Live counters under their canonical `serve.*` names.
    pub fn stats_snapshot(&self) -> BTreeMap<String, u64> {
        BTreeMap::from([
            (
                names::SERVE_REQUESTS.to_string(),
                self.counters.requests.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_DEDUPED.to_string(),
                self.counters.deduped.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_BATCHED.to_string(),
                self.counters.batched.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_MATERIALIZATIONS.to_string(),
                self.counters.materializations.load(Ordering::Relaxed),
            ),
        ])
    }

    /// The full enriched stats payload: the counters of
    /// [`Dispatcher::stats_snapshot`] plus the telemetry's gauges,
    /// per-outcome latency quantiles, and snapshot-window ring.
    pub fn full_stats(&self) -> ServeStats {
        self.telemetry.snapshot(self.stats_snapshot())
    }

    /// The request-outcome telemetry accumulator (tests roll its
    /// windows deterministically through this).
    pub fn telemetry(&self) -> &ServeTelemetry {
        &self.telemetry
    }

    /// Blocks until no wave is running (or the timeout passes);
    /// returns whether the dispatcher went idle.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock().expect("dispatcher active lock poisoned");
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(active, deadline - now)
                .expect("dispatcher active lock poisoned");
            active = guard;
        }
        true
    }

    fn next_label(&self) -> String {
        format!("wave-{}", self.wave_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Runs the claimed wave, then keeps promoting the pending wave of
    /// the same fingerprint until none is left.
    fn run_waves(&self, fingerprint: u64, mut ctx: ExperimentContext, mut label: String) {
        loop {
            self.counters
                .materializations
                .fetch_add(1, Ordering::Relaxed);
            mpvar_trace::counter_add(names::SERVE_MATERIALIZATIONS, 1);

            let artifacts: Vec<ArtifactId> = {
                let waves = self.waves.lock().expect("dispatcher waves lock poisoned");
                let running = waves
                    .get(&fingerprint)
                    .and_then(|s| s.running.as_ref())
                    .expect("running wave state");
                running.artifacts.iter().copied().collect()
            };

            let study = Study::with_store(ctx.clone(), Arc::clone(&self.store))
                .with_span_label(label.clone());
            let rendered = study
                .materialize(&artifacts)
                .map(|values| {
                    artifacts
                        .iter()
                        .zip(values)
                        .map(|(id, value)| {
                            let art = value.render();
                            (
                                *id,
                                RenderedArtifact {
                                    id: art.id,
                                    text: art.text,
                                    csv: art.csv,
                                },
                            )
                        })
                        .collect::<BTreeMap<ArtifactId, RenderedArtifact>>()
                })
                .map_err(|e| e.to_string());

            // Classify the wave for telemetry: a wave that computed
            // nothing was answered entirely by the store (warm),
            // anything else is cold. Dedupe joiners are tagged on
            // their waiter instead.
            let wave_outcome = if study.session_stats().computed == 0 {
                RequestOutcome::WarmHit
            } else {
                RequestOutcome::Cold
            };

            // Drain this wave's waiters and promote the pending wave
            // under one lock, so a dedupe join can never slip between
            // "wave done" and "waiters answered".
            let (waiters, next) = {
                let mut waves = self.waves.lock().expect("dispatcher waves lock poisoned");
                let state = waves.get_mut(&fingerprint).expect("wave state");
                let finished = state.running.take().expect("running wave state");
                let next = if state.pending.is_empty() {
                    waves.remove(&fingerprint);
                    None
                } else {
                    let jobs = std::mem::take(&mut state.pending);
                    let artifacts = std::mem::take(&mut state.pending_artifacts);
                    let next_label = self.next_label();
                    let next_ctx = jobs[0].ctx.clone();
                    let mut waiters = Vec::with_capacity(jobs.len());
                    for job in jobs {
                        if job.progress {
                            self.router.attach(&next_label, job.waiter.tx.clone());
                        }
                        waiters.push(job.waiter);
                    }
                    state.running = Some(RunningWave {
                        label: next_label.clone(),
                        artifacts,
                        waiters,
                    });
                    Some((next_ctx, next_label))
                };
                (finished.waiters, next)
            };
            self.router.clear(&label);

            for waiter in waiters {
                let answer = match &rendered {
                    Ok(map) => Ok(waiter
                        .artifacts
                        .iter()
                        .map(|id| map[id].clone())
                        .collect::<Vec<_>>()),
                    Err(message) => Err(message.clone()),
                };
                // Latency is submit → answer, queueing included: it is
                // the latency the *client* experienced.
                match &answer {
                    Ok(_) => self.telemetry.record(
                        if waiter.deduped {
                            RequestOutcome::Deduped
                        } else {
                            wave_outcome
                        },
                        waiter.submitted.elapsed(),
                    ),
                    Err(_) => self.telemetry.record_error(),
                }
                // A waiter that hung up just misses its answer.
                let _ = waiter.tx.send(JobEvent::Done(answer));
            }

            match next {
                Some((next_ctx, next_label)) => {
                    ctx = next_ctx;
                    label = next_label;
                }
                None => return,
            }
        }
    }
}

/// Runs `work` on a new thread named `name`, or on the calling thread
/// when no thread can be spawned (say, the process is at its thread
/// limit).
pub(crate) fn spawn_or_run<F: FnOnce() + Send + 'static>(name: String, work: F) {
    fn take_and_run<F: FnOnce()>(slot: &Mutex<Option<F>>) {
        let work = slot.lock().expect("spawn slot lock poisoned").take();
        if let Some(work) = work {
            work();
        }
    }
    // The slot hands `work` back when `spawn` fails: it consumes the
    // closure it was given either way.
    let slot = Arc::new(Mutex::new(Some(work)));
    let theirs = Arc::clone(&slot);
    if spawn_thread(name, move || take_and_run(&theirs)).is_err() {
        take_and_run(&slot);
    }
}

fn spawn_thread(name: String, f: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
    #[cfg(test)]
    if SPAWN_FAULT.with(|armed| armed.replace(false)) {
        return Err(std::io::Error::other("injected spawn fault"));
    }
    std::thread::Builder::new().name(name).spawn(f).map(drop)
}

#[cfg(test)]
std::thread_local! {
    /// A one-shot spawn failure armed on this thread, for the
    /// fallback test.
    static SPAWN_FAULT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Arms a one-shot failure for the next spawn on this thread.
#[cfg(test)]
fn inject_spawn_fault() {
    SPAWN_FAULT.with(|armed| armed.set(true));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ContextSpec, Preset};
    use mpvar_study::MemoryStore;
    use std::sync::mpsc::RecvTimeoutError;

    fn quick_request(id: &str, artifacts: Vec<ArtifactId>) -> AnalysisRequest {
        AnalysisRequest {
            id: id.to_string(),
            artifacts,
            context: ContextSpec {
                preset: Preset::Quick,
                sizes: Some(vec![8]),
                trials: Some(120),
                seed: Some(11),
                threads: Some(1),
            },
            progress: false,
        }
    }

    fn dispatcher() -> Arc<Dispatcher> {
        Arc::new(Dispatcher::new(
            Arc::new(MemoryStore::new()),
            Arc::new(ProgressRouter::new()),
        ))
    }

    fn done_of(handle: &JobHandle) -> Result<Vec<RenderedArtifact>, String> {
        loop {
            match handle.events.recv_timeout(Duration::from_secs(120)) {
                Ok(JobEvent::Done(answer)) => return answer,
                Ok(JobEvent::Progress(_)) => continue,
                Err(RecvTimeoutError::Timeout) => panic!("job timed out"),
                Err(RecvTimeoutError::Disconnected) => panic!("job channel closed without Done"),
            }
        }
    }

    #[test]
    fn answers_each_waiter_with_its_own_artifacts_in_request_order() {
        let dispatcher = dispatcher();
        let a = dispatcher
            .submit(&quick_request(
                "a",
                vec![ArtifactId::Table3, ArtifactId::Table1],
            ))
            .expect("submit a");
        let b = dispatcher
            .submit(&quick_request("b", vec![ArtifactId::Table1]))
            .expect("submit b");
        let got_a = done_of(&a).expect("a succeeds");
        let got_b = done_of(&b).expect("b succeeds");
        assert_eq!(
            got_a.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["table3", "table1"]
        );
        assert_eq!(
            got_b.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["table1"]
        );
        // Same artifact answered to both waves must render identically
        // (second wave is a pure cache replay of the shared store).
        let a_table1 = got_a.iter().find(|r| r.id == "table1").expect("table1");
        assert_eq!(a_table1, &got_b[0]);
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        let stats = dispatcher.stats_snapshot();
        assert_eq!(stats[names::SERVE_REQUESTS], 2);
    }

    #[test]
    fn a_failed_wave_spawn_runs_the_wave_on_the_caller() {
        let dispatcher = dispatcher();
        inject_spawn_fault();
        let handle = dispatcher
            .submit(&quick_request("s", vec![ArtifactId::Table1]))
            .expect("submit");
        // The wave ran inside `submit`: its answer is already queued
        // and no wave is left running.
        match handle.events.try_recv() {
            Ok(JobEvent::Done(answer)) => {
                assert_eq!(answer.expect("job succeeds")[0].id, "table1");
            }
            other => panic!("expected a queued Done, got {other:?}"),
        }
        assert!(dispatcher.wait_idle(Duration::ZERO));

        // The fingerprint is not wedged: the next request for it gets a
        // wave of its own (spawned normally, the fault was one-shot).
        let again = dispatcher
            .submit(&quick_request("t", vec![ArtifactId::Table1]))
            .expect("submit again");
        assert_eq!(done_of(&again).expect("job succeeds")[0].id, "table1");
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        assert_eq!(
            dispatcher.stats_snapshot()[names::SERVE_MATERIALIZATIONS],
            2
        );
    }

    #[test]
    fn progress_flag_without_a_collector_still_delivers_done() {
        // Tracing is off (no collector installed in this test), so a
        // progress=true job must get zero progress events but still
        // its Done — progress is observational, never load-bearing.
        let dispatcher = dispatcher();
        let mut request = quick_request("p", vec![ArtifactId::Table1]);
        request.progress = true;
        let handle = dispatcher.submit(&request).expect("submit");
        match handle.events.recv_timeout(Duration::from_secs(120)) {
            Ok(JobEvent::Done(answer)) => {
                let artifacts = answer.expect("job succeeds");
                assert_eq!(artifacts.len(), 1);
                assert_eq!(artifacts[0].id, "table1");
            }
            other => panic!("expected Done first, got {other:?}"),
        }
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        assert_eq!(
            dispatcher.stats_snapshot()[names::SERVE_MATERIALIZATIONS],
            1
        );
    }
}
