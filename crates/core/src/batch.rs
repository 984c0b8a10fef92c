//! Cross-job batching: a rendezvous gate that merges the per-generation
//! image batches of several concurrently running attacks into one
//! stacked forward pass.
//!
//! The serving layer runs each accepted job as its own attack, and each
//! attack evaluates its population once per generation through
//! [`Detector::detect_batch_into`]. When several queued jobs target the
//! *same model* (same architecture, model seed and kernel policy), their
//! per-generation batches can ride one union call: the
//! [`Detector::detect_batch_into`] contract guarantees every entry
//! equals the scalar `detect` of its image, so stacking is a pure speed
//! knob — the per-job predictions, and therefore the persisted CSVs,
//! stay byte-identical to solo runs.
//!
//! [`BatchGate`] is the rendezvous point. Each member attack runs on its
//! own thread with a [`GateDetector`] handle; when a member needs a
//! batch evaluated it *posts* the batch and blocks. Once every still
//! active member has posted, the last arrival concatenates the posts,
//! runs the inner detector's batched pass once, scatters the prediction
//! slices back and wakes everyone. Members finish at different times
//! (jobs have independent generation budgets); dropping a
//! [`GateDetector`] marks its member as departed so the survivors
//! rendezvous among themselves — a panicking member departs the same
//! way, so one poisoned job cannot wedge its batch group.
//!
//! Scalar calls ([`Detector::detect`], [`Detector::detect_masked`], …)
//! pass straight through to the inner detector: only the population
//! batch is worth a rendezvous, and pass-through keeps the gate safe to
//! leave wrapped around every call site.

use bea_detect::{CacheStats, Detector, GradientObjective, InputGradient, Prediction};
use bea_image::{FilterMask, Image};
use bea_tensor::FeatureMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

struct GateState {
    /// Members still attacking (posted or about to post).
    active: usize,
    /// Per-member posted batch, `None` when not currently waiting.
    posts: Vec<Option<Vec<Image>>>,
    /// Per-member results of the last executed union pass.
    results: Vec<Option<Vec<Prediction>>>,
    /// How many members have posted in the current round.
    arrived: usize,
    /// A member is currently running the union forward pass (with the
    /// lock released); nobody else may start one.
    executing: bool,
}

/// The rendezvous gate shared by one group of co-batched attacks. See
/// the [module docs](self).
pub struct BatchGate {
    inner: Box<dyn Detector>,
    state: Mutex<GateState>,
    ready: Condvar,
}

impl std::fmt::Debug for BatchGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock();
        f.debug_struct("BatchGate")
            .field("detector", &self.inner.name())
            .field("members", &state.posts.len())
            .field("active", &state.active)
            .field("arrived", &state.arrived)
            .finish()
    }
}

impl BatchGate {
    /// A gate over `inner` for `members` co-batched attacks. Call
    /// [`BatchGate::member`] exactly once per member id before the
    /// attacks start.
    pub fn new(inner: Box<dyn Detector>, members: usize) -> Arc<Self> {
        assert!(members >= 1, "a gate needs at least one member");
        Arc::new(Self {
            inner,
            state: Mutex::new(GateState {
                active: members,
                posts: vec![None; members],
                results: (0..members).map(|_| None).collect(),
                arrived: 0,
                executing: false,
            }),
            ready: Condvar::new(),
        })
    }

    /// The detector handle of member `id` (in `0..members`). Dropping
    /// the handle marks the member as departed.
    pub fn member(self: &Arc<Self>, id: usize) -> GateDetector {
        let members = self.lock().posts.len();
        assert!(id < members, "member id {id} out of range 0..{members}");
        GateDetector { gate: Arc::clone(self), id }
    }

    /// Members that have not departed yet (for tests and diagnostics).
    pub fn active_members(&self) -> usize {
        self.lock().active
    }

    /// The gate state, recovered from poison: a member that panicked
    /// while holding the lock must fail its own job, not every member's.
    /// The gate raises its own misuse panic only after releasing it.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts member `id`'s batch and blocks until the union pass that
    /// includes it has run, returning the member's prediction slice.
    fn rendezvous(&self, id: usize, imgs: &[&Image]) -> Vec<Prediction> {
        let owned: Vec<Image> = imgs.iter().map(|img| (*img).clone()).collect();
        let batch_len = owned.len();
        let mut state = self.lock();
        if state.posts[id].is_some() {
            // Panic only once the guard is gone, so the lock stays clean
            // for the members still waiting on it.
            drop(state);
            panic!("gate member {id} posted concurrently: one post per member per round");
        }
        state.posts[id] = Some(owned);
        state.arrived += 1;
        self.ready.notify_all();
        loop {
            if let Some(result) = state.results[id].take() {
                debug_assert_eq!(result.len(), batch_len);
                return result;
            }
            // Everyone active has posted and nobody is mid-pass: this
            // thread becomes the executor. Departures (`leave`) can also
            // complete the quorum; the waiter that notices runs it.
            if !state.executing && state.arrived > 0 && state.arrived == state.active {
                state.executing = true;
                let round: Vec<(usize, Vec<Image>)> = state
                    .posts
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(member, post)| post.take().map(|imgs| (member, imgs)))
                    .collect();
                state.arrived = 0;
                drop(state);

                let union: Vec<&Image> = round.iter().flat_map(|(_, imgs)| imgs.iter()).collect();
                let predictions = self.inner.detect_batch(&union);
                debug_assert_eq!(predictions.len(), union.len());

                state = self.lock();
                let mut offset = 0;
                for (member, imgs) in &round {
                    let end = offset + imgs.len();
                    state.results[*member] = Some(predictions[offset..end].to_vec());
                    offset = end;
                }
                state.executing = false;
                self.ready.notify_all();
                let result = state.results[id].take().expect("executor's own slice");
                return result;
            }
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks a member as departed; if the departure completes the
    /// current round's quorum, a waiting member is woken to execute it.
    fn leave(&self, id: usize) {
        let mut state = self.lock();
        debug_assert!(state.posts[id].is_none(), "member left while waiting in the gate");
        state.active -= 1;
        drop(state);
        self.ready.notify_all();
    }
}

/// One member's detector handle into a [`BatchGate`]. Implements
/// [`Detector`] by routing population batches through the gate and
/// everything else straight to the inner detector.
#[derive(Debug)]
pub struct GateDetector {
    gate: Arc<BatchGate>,
    id: usize,
}

impl Drop for GateDetector {
    fn drop(&mut self) {
        self.gate.leave(self.id);
    }
}

impl Detector for GateDetector {
    fn detect(&self, img: &Image) -> Prediction {
        self.gate.inner.detect(img)
    }

    fn name(&self) -> &str {
        self.gate.inner.name()
    }

    fn heatmap(&self, img: &Image) -> FeatureMap {
        self.gate.inner.heatmap(img)
    }

    fn detect_masked(&self, clean: &Image, mask: &FilterMask) -> Prediction {
        self.gate.inner.detect_masked(clean, mask)
    }

    fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
        let predictions = self.gate.rendezvous(self.id, imgs);
        out.clear();
        out.extend(predictions);
    }

    fn detect_masked_batch_into(
        &self,
        clean: &Image,
        masks: &[&FilterMask],
        out: &mut Vec<Prediction>,
    ) {
        self.gate.inner.detect_masked_batch_into(clean, masks, out);
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.gate.inner.cache_stats()
    }

    fn input_gradient(&self, img: &Image, objective: GradientObjective) -> Option<InputGradient> {
        self.gate.inner.input_gradient(img, objective)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::AttackConfig;
    use crate::campaign::{Campaign, CampaignConfig, CellSpec};
    use crate::report::write_csv;
    use crate::test_fixtures::Toy;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A detector whose prediction depends only on the image, with
    /// counters for how the calls were grouped. Cloning shares the
    /// counters, so tests keep a handle while the gate owns the box.
    #[derive(Clone)]
    struct Probe {
        calls: Arc<AtomicUsize>,
        images_seen: Arc<AtomicUsize>,
    }

    impl Probe {
        fn new() -> Self {
            Self {
                calls: Arc::new(AtomicUsize::new(0)),
                images_seen: Arc::new(AtomicUsize::new(0)),
            }
        }
    }

    impl Detector for Probe {
        fn detect(&self, img: &Image) -> Prediction {
            // Derive a detection from the image so per-member results
            // are distinguishable after the union pass scatters.
            let v = img.pixel(0, 0)[0];
            Prediction::from_detections(vec![bea_detect::Detection::new(
                bea_scene::ObjectClass::Car,
                bea_scene::BBox::new(v, v, v + 1.0, v + 1.0),
                1.0,
            )])
        }

        fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.images_seen.fetch_add(imgs.len(), Ordering::SeqCst);
            out.clear();
            out.extend(imgs.iter().map(|img| self.detect(img)));
        }

        fn name(&self) -> &str {
            "probe"
        }
    }

    fn img(v: f32) -> Image {
        Image::filled(2, 2, [v, 0.0, 0.0])
    }

    #[test]
    fn members_rendezvous_into_one_union_pass() {
        let probe = Probe::new();
        let gate = BatchGate::new(Box::new(probe.clone()), 3);
        let handles: Vec<_> = (0..3)
            .map(|member| {
                let detector = gate.member(member);
                std::thread::spawn(move || {
                    let a = img(member as f32);
                    let b = img(member as f32 + 10.0);
                    let batch = detector.detect_batch(&[&a, &b]);
                    assert_eq!(batch.len(), 2);
                    // Scattered slices line up with this member's own
                    // images, not anyone else's.
                    assert_eq!(batch[0], detector.detect(&a));
                    assert_eq!(batch[1], detector.detect(&b));
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("member thread");
        }
        assert_eq!(probe.calls.load(Ordering::SeqCst), 1, "one union pass for 3 members");
        assert_eq!(probe.images_seen.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn departed_members_do_not_stall_the_survivors() {
        let gate = BatchGate::new(Box::new(Probe::new()), 3);
        let quick = gate.member(0);
        let survivors: Vec<_> = (1..3)
            .map(|member| {
                let detector = gate.member(member);
                std::thread::spawn(move || {
                    // Two rounds; the quick member is gone for both.
                    for round in 0..2 {
                        let a = img(member as f32 + round as f32);
                        let batch = detector.detect_batch(&[&a]);
                        assert_eq!(batch[0], detector.detect(&a));
                    }
                })
            })
            .collect();
        // Member 0 departs without ever posting.
        drop(quick);
        assert_eq!(gate.active_members(), 2);
        for handle in survivors {
            handle.join().expect("survivor thread");
        }
    }

    #[test]
    fn unequal_round_counts_resolve_via_departure() {
        let gate = BatchGate::new(Box::new(Probe::new()), 2);
        let long_lived = gate.member(0);
        let short_lived = gate.member(1);
        let long = std::thread::spawn(move || {
            for round in 0..3 {
                let a = img(round as f32);
                let batch = long_lived.detect_batch(&[&a]);
                assert_eq!(batch[0], long_lived.detect(&a));
            }
        });
        let short = std::thread::spawn(move || {
            let a = img(99.0);
            let batch = short_lived.detect_batch(&[&a]);
            assert_eq!(batch[0], short_lived.detect(&a));
            // Dropping departs; the long-lived member's remaining
            // rounds run solo instead of deadlocking.
        });
        short.join().expect("short thread");
        long.join().expect("long thread");
        assert_eq!(gate.active_members(), 0);
    }

    #[test]
    fn single_member_gate_is_a_plain_detector() {
        let gate = BatchGate::new(Box::new(Probe::new()), 1);
        let detector = gate.member(0);
        let a = img(1.0);
        let b = img(2.0);
        assert_eq!(
            detector.detect_batch(&[&a, &b]),
            vec![detector.detect(&a), detector.detect(&b)]
        );
        let mask = FilterMask::zeros(2, 2);
        assert_eq!(detector.detect_masked(&a, &mask), detector.detect(&a));
        assert_eq!(
            detector.detect_masked_batch(&a, &[&mask]),
            vec![detector.detect_masked(&a, &mask)]
        );
        assert_eq!(detector.name(), "probe");
        assert!(detector.cache_stats().is_none());
        assert!(detector.input_gradient(&a, GradientObjective::default()).is_none());
        assert_eq!(detector.heatmap(&a).shape(), (0, 0, 0));
    }

    const MEMBERS: usize = 3;

    fn member_campaign(eval_threads: usize) -> Campaign {
        let mut attack = AttackConfig::scaled(10, 3);
        attack.nsga2.eval_threads = eval_threads;
        Campaign::new(CampaignConfig { attack, base_seed: 11, jobs: 1, telemetry: false })
    }

    /// Runs member `member`'s single-cell campaign on `detector` and
    /// renders its rows as the CSV bytes a store would persist.
    fn cell_csv(member: usize, eval_threads: usize, detector: Box<dyn Detector>) -> Vec<u8> {
        let slot = Mutex::new(Some(detector));
        let result = member_campaign(eval_threads).run(
            &[CellSpec::new("toy", 1, member)],
            |_| slot.lock().unwrap().take().expect("one detector per cell"),
            |_| Image::black(24, 12),
        );
        let mut csv = Vec::new();
        write_csv(&result.cells[0].rows, &mut csv).unwrap();
        csv
    }

    /// One gate group over [`Toy`], run through the fan-out the server's
    /// gate groups use, each member's job contained by `catch_unwind` as
    /// a server worker does. `wrap` builds member `k`'s detector.
    fn run_gate_group<W>(eval_threads: usize, wrap: W) -> Vec<Result<Vec<u8>, String>>
    where
        W: Fn(usize, GateDetector) -> Box<dyn Detector> + Sync,
    {
        let gate = BatchGate::new(Box::new(Toy), MEMBERS);
        bea_tensor::threads::fan_out(MEMBERS, MEMBERS, |member| {
            let detector = wrap(member, gate.member(member));
            std::panic::catch_unwind(AssertUnwindSafe(|| cell_csv(member, eval_threads, detector)))
                .map_err(|panic| {
                    panic.downcast_ref::<String>().cloned().unwrap_or_else(|| "panic".to_string())
                })
        })
    }

    #[test]
    fn gated_members_with_threaded_evaluation_match_solo_runs() {
        // Every member asks for two evaluation threads; as fan-out
        // workers they evaluate inline, posting once per round.
        let gated = run_gate_group(2, |_, handle| Box::new(handle));
        for (member, csv) in gated.into_iter().enumerate() {
            let solo = cell_csv(member, 0, Box::new(Toy));
            assert_eq!(csv.expect("gated member succeeds"), solo, "member {member}");
        }
    }

    /// A gate member for the misuse test. The `double` member posts each
    /// batch twice at once; the others hold their posts until that second
    /// post is done, so it always lands while the first is still waiting.
    struct Misuse {
        handle: GateDetector,
        double: bool,
        released: Arc<AtomicBool>,
    }

    /// Releases the held members when dropped, including during unwinding.
    struct Release<'a>(&'a AtomicBool);

    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    impl Detector for Misuse {
        fn detect(&self, img: &Image) -> Prediction {
            self.handle.detect(img)
        }

        fn name(&self) -> &str {
            "misuse"
        }

        fn detect_batch_into(&self, imgs: &[&Image], out: &mut Vec<Prediction>) {
            if !self.double {
                while !self.released.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                return self.handle.detect_batch_into(imgs, out);
            }
            std::thread::scope(|scope| {
                let first = scope.spawn(|| self.handle.detect_batch(imgs));
                while self.handle.gate.lock().posts[self.handle.id].is_none() {
                    std::thread::yield_now();
                }
                let _release = Release(&self.released);
                self.handle.detect_batch_into(imgs, out);
                first.join().expect("the first post completes its round");
            });
        }
    }

    #[test]
    fn a_member_posting_twice_fails_only_its_own_job() {
        let released = Arc::new(AtomicBool::new(false));
        let outcomes = run_gate_group(1, |member, handle| {
            Box::new(Misuse { handle, double: member == 0, released: Arc::clone(&released) })
        });
        let failure = outcomes[0].as_ref().expect_err("the double-posting member fails");
        assert!(failure.contains("posted concurrently"), "{failure}");
        for (member, csv) in outcomes.into_iter().enumerate().skip(1) {
            let solo = cell_csv(member, 0, Box::new(Toy));
            assert_eq!(csv.expect("the rest of the group finishes"), solo, "member {member}");
        }
    }
}
