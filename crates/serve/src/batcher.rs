//! Micro-batching request queue.
//!
//! Classify requests land in a bounded [`BatchQueue`]; an inference worker
//! pulls a batch — flushing as soon as either `max_batch` requests are
//! waiting or `batch_deadline` has passed since it started collecting — and
//! runs ONE [`Sequential::forward`] over the stacked `[n, C, H, W]` input.
//! Each request's [`ResponseSlot`] is then filled with its row of the
//! softmaxed logits.
//!
//! Batching is exact, not approximate: every layer in the workspace
//! processes batch rows independently (BatchNorm runs in `Eval` mode on its
//! running statistics, and the row-parallel matmul keeps per-row summation
//! order), so the logits for a request are bit-identical whether it rode in
//! a batch of 1 or 64. `micro_batching_matches_single_request_forward`
//! below pins this down.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::tier::{Tier, TierModels, ALL_TIERS};
use xbar_nn::{Mode, Sequential};
use xbar_obs::ring::StageTiming;
use xbar_obs::{metrics, names, trace};
use xbar_tensor::Tensor;

/// Bucket bounds for the `serve/batch_size` histogram.
const BATCH_SIZE_BOUNDS: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// Result of classifying one image.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyOutcome {
    /// Argmax class index.
    pub class: usize,
    /// Softmax probabilities, one per class.
    pub scores: Vec<f32>,
    /// How many requests shared the forward pass that produced this.
    pub batch_size: usize,
    /// Per-stage timings (`queue`, `batch`, `solve`) gathered on the
    /// inference side; the HTTP worker appends its own `respond` stage and
    /// feeds the lot into request tracing when the request is sampled.
    pub stages: Vec<StageTiming>,
}

type SlotState = Option<Result<ClassifyOutcome, String>>;

/// One-shot rendezvous between request submission and the inference
/// worker that computes the answer. Callers either block on [`wait`]
/// (thread-per-request style, used by tests) or register a [`notifier`]
/// and poll [`take`] (the event loop's completion path).
///
/// [`wait`]: ResponseSlot::wait
/// [`take`]: ResponseSlot::take
/// [`notifier`]: ResponseSlot::set_notifier
#[derive(Default)]
pub struct ResponseSlot {
    state: Mutex<SlotState>,
    cond: Condvar,
    notify: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl ResponseSlot {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers a one-shot callback invoked (once) right after the slot
    /// is filled. The event loop uses this to get woken through its wake
    /// pipe instead of blocking a thread per request. Register *before*
    /// submitting the request, or the fill can race past the registration
    /// and the callback will never run.
    pub fn set_notifier(&self, f: impl FnOnce() + Send + 'static) {
        *self.notify.lock().expect("slot notifier poisoned") = Some(Box::new(f));
    }

    /// Fills the slot and wakes the waiter. Second fills are ignored.
    pub fn fill(&self, value: Result<ClassifyOutcome, String>) {
        let filled = {
            let mut state = self.state.lock().expect("slot lock poisoned");
            if state.is_none() {
                *state = Some(value);
                self.cond.notify_all();
                true
            } else {
                false
            }
        };
        if filled {
            // Run the notifier outside the state lock: it typically locks
            // the event loop's completion list.
            let notify = self.notify.lock().expect("slot notifier poisoned").take();
            if let Some(f) = notify {
                f();
            }
        }
    }

    /// Non-blocking read: returns the outcome if the slot has been filled,
    /// consuming it. `None` means not ready yet.
    pub fn take(&self) -> Option<Result<ClassifyOutcome, String>> {
        self.state.lock().expect("slot lock poisoned").take()
    }

    /// Blocks until the slot is filled or `timeout` elapses; `None` means
    /// the request timed out (the caller answers 504).
    pub fn wait(&self, timeout: Duration) -> Option<Result<ClassifyOutcome, String>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("slot lock poisoned");
        while state.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (next, _) = self
                .cond
                .wait_timeout(state, deadline - now)
                .expect("slot lock poisoned");
            state = next;
        }
        state.take()
    }
}

/// A queued classify request: flattened `C·H·W` input plus where to
/// deliver the answer.
pub struct Pending {
    pub input: Vec<f32>,
    pub slot: Arc<ResponseSlot>,
    /// Which weight set to classify against. Mixed-tier micro-batches are
    /// split into per-tier sub-batches by the inference worker.
    pub tier: Tier,
    /// When the request entered the batch queue (trace-epoch µs); the
    /// inference worker turns the gap to batch start into the `queue`
    /// stage timing.
    pub enqueued_us: u64,
}

impl Pending {
    /// Builds an exact-tier pending request stamped with the current
    /// trace-epoch time.
    pub fn new(input: Vec<f32>, slot: Arc<ResponseSlot>) -> Self {
        Pending::for_tier(Tier::Exact, input, slot)
    }

    /// Builds a pending request against a specific fidelity tier.
    pub fn for_tier(tier: Tier, input: Vec<f32>, slot: Arc<ResponseSlot>) -> Self {
        Pending {
            input,
            slot,
            tier,
            enqueued_us: trace::now_us(),
        }
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity — backpressure, answer 503.
    QueueFull { cap: usize },
    /// The server is shutting down — answer 503.
    Closed,
}

struct QueueState {
    items: VecDeque<Pending>,
    closed: bool,
}

/// Bounded MPMC queue of pending classify requests.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    cap: usize,
}

impl BatchQueue {
    pub fn new(cap: usize) -> Arc<Self> {
        Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Enqueues a request.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::Closed`]
    /// after [`BatchQueue::close`].
    pub fn submit(&self, pending: Pending) -> Result<(), SubmitError> {
        let mut state = self.state.lock().expect("batch queue poisoned");
        if state.closed {
            return Err(SubmitError::Closed);
        }
        if state.items.len() >= self.cap {
            metrics::counter_add(names::SERVE_QUEUE_REJECTIONS, 1);
            return Err(SubmitError::QueueFull { cap: self.cap });
        }
        state.items.push_back(pending);
        metrics::gauge_set(names::SERVE_QUEUE_DEPTH, state.items.len() as f64);
        self.cond.notify_one();
        Ok(())
    }

    /// Number of requests currently waiting.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("batch queue poisoned").items.len()
    }

    /// Marks the queue closed and wakes all workers. Already-queued
    /// requests are still drained by `next_batch`.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("batch queue poisoned");
        state.closed = true;
        self.cond.notify_all();
    }

    /// Collects the next micro-batch: blocks for the first request, then
    /// keeps collecting until `max_batch` requests are in hand or
    /// `deadline` has passed since the first arrived. Returns `None` once
    /// the queue is closed *and* drained — the worker's exit signal.
    pub fn next_batch(&self, max_batch: usize, deadline: Duration) -> Option<Vec<Pending>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().expect("batch queue poisoned");
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).expect("batch queue poisoned");
        }
        let flush_at = Instant::now() + deadline;
        loop {
            if state.items.len() >= max_batch || state.closed {
                break;
            }
            let now = Instant::now();
            if now >= flush_at {
                break;
            }
            let (next, wait) = self
                .cond
                .wait_timeout(state, flush_at - now)
                .expect("batch queue poisoned");
            state = next;
            if wait.timed_out() {
                break;
            }
        }
        let n = state.items.len().min(max_batch);
        let batch = state.items.drain(..n).collect();
        metrics::gauge_set(names::SERVE_QUEUE_DEPTH, state.items.len() as f64);
        Some(batch)
    }
}

/// Numerically stable softmax over one logit row.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let total: f32 = exps.iter().sum();
    if total > 0.0 {
        exps.iter().map(|&e| e / total).collect()
    } else {
        vec![1.0 / logits.len().max(1) as f32; logits.len()]
    }
}

/// Runs one batch through the model and fills every slot.
///
/// Exposed (not just used by the worker loop) so tests can compare batched
/// against single-request execution on the same model instance.
pub fn classify_batch(model: &mut Sequential, input_shape: &[usize], batch: Vec<Pending>) {
    let n = batch.len();
    let batch_start_us = trace::now_us();
    let per_example: usize = input_shape.iter().product();
    let mut stacked = Vec::with_capacity(n * per_example);
    for pending in &batch {
        stacked.extend_from_slice(&pending.input);
    }
    let mut shape = Vec::with_capacity(1 + input_shape.len());
    shape.push(n);
    shape.extend_from_slice(input_shape);
    let solve_start_us = trace::now_us();
    let start = Instant::now();
    let result = Tensor::from_vec(stacked, &shape)
        .and_then(|x| model.forward(&x, Mode::Eval))
        .map_err(|e| format!("forward failed: {e}"));
    let solve_us = start.elapsed().as_micros() as u64;
    metrics::latency_record_us(names::SERVE_INFER_US, solve_us);
    metrics::histogram_record(names::SERVE_BATCH_SIZE, n as f64, BATCH_SIZE_BOUNDS);
    metrics::counter_add(names::SERVE_BATCHES, 1);
    // queue: enqueue → batch assembly; batch: stacking; solve: the shared
    // forward pass. Start offsets are absolute (trace epoch) so the stages
    // line up with HTTP-side spans in exports.
    let stages_for = |enqueued_us: u64| {
        vec![
            StageTiming {
                stage: "queue",
                start_us: enqueued_us,
                duration_us: batch_start_us.saturating_sub(enqueued_us),
            },
            StageTiming {
                stage: "batch",
                start_us: batch_start_us,
                duration_us: solve_start_us.saturating_sub(batch_start_us),
            },
            StageTiming {
                stage: "solve",
                start_us: solve_start_us,
                duration_us: solve_us,
            },
        ]
    };
    match result {
        Ok(logits) => {
            let classes = logits.shape().last().copied().unwrap_or(0).max(1);
            let rows = logits.as_slice().chunks_exact(classes);
            for (pending, row) in batch.iter().zip(rows) {
                let scores = softmax(row);
                let class = scores
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i);
                pending.slot.fill(Ok(ClassifyOutcome {
                    class,
                    scores,
                    batch_size: n,
                    stages: stages_for(pending.enqueued_us),
                }));
            }
        }
        Err(msg) => {
            for pending in &batch {
                pending.slot.fill(Err(msg.clone()));
            }
        }
    }
}

/// Splits one pulled batch into per-tier sub-batches and runs each through
/// the matching model, so a batch that mixes fidelity tiers shares one
/// forward pass per tier. The serving workers
/// ([`crate::lifecycle::replica_inference_loop`]) call it once per pulled
/// batch; each owns its own [`TierModels`] clone, so they run concurrently
/// without locking the networks.
pub fn run_tier_batches(models: &mut TierModels, input_shape: &[usize], batch: Vec<Pending>) {
    let mut groups: [Vec<Pending>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for pending in batch {
        let slot = ALL_TIERS
            .iter()
            .position(|&t| t == pending.tier)
            .expect("every tier is in ALL_TIERS");
        groups[slot].push(pending);
    }
    for (tier, group) in ALL_TIERS.into_iter().zip(groups) {
        if group.is_empty() {
            continue;
        }
        match models.model_mut(tier) {
            Some(model) => classify_batch(model, input_shape, group),
            // The HTTP side rejects unavailable tiers with 409 before
            // enqueueing; reaching here means a logic error, so answer
            // the requests instead of hanging them into a 504.
            None => {
                for pending in &group {
                    pending
                        .slot
                        .fill(Err(format!("fidelity tier {tier:?} has no model loaded")));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use xbar_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, ReLU};
    use xbar_nn::Layer;

    fn tiny_model() -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 4, 3, 1, 1, 7)),
            Layer::ReLU(ReLU::new()),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(4 * 4 * 4, 3, 9)),
        ])
    }

    fn image(seed: usize) -> Vec<f32> {
        (0..64)
            .map(|i| ((i * 31 + seed * 7) % 13) as f32 / 13.0 - 0.5)
            .collect()
    }

    #[test]
    fn micro_batching_matches_single_request_forward() {
        let shape = [1usize, 8, 8];
        // Batched: five requests through one forward pass.
        let mut model = tiny_model();
        let slots: Vec<Arc<ResponseSlot>> = (0..5).map(|_| ResponseSlot::new()).collect();
        let batch: Vec<Pending> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| Pending::new(image(i), Arc::clone(slot)))
            .collect();
        classify_batch(&mut model, &shape, batch);
        // Singles: each request through its own forward pass.
        for (i, slot) in slots.iter().enumerate() {
            let batched = slot
                .wait(Duration::from_secs(1))
                .expect("slot filled")
                .expect("classify ok");
            assert_eq!(batched.batch_size, 5);
            let single_slot = ResponseSlot::new();
            classify_batch(
                &mut tiny_model(),
                &shape,
                vec![Pending::new(image(i), Arc::clone(&single_slot))],
            );
            let single = single_slot
                .wait(Duration::from_secs(1))
                .expect("slot filled")
                .expect("classify ok");
            assert_eq!(
                batched.scores, single.scores,
                "request {i}: micro-batched scores must be bit-identical"
            );
            assert_eq!(batched.class, single.class);
        }
    }

    #[test]
    fn queue_flushes_on_batch_size() {
        let queue = BatchQueue::new(16);
        for i in 0..4 {
            queue
                .submit(Pending::new(image(i), ResponseSlot::new()))
                .unwrap();
        }
        // Deadline far away: the size trigger must flush immediately.
        let batch = queue.next_batch(4, Duration::from_secs(60)).unwrap();
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn queue_flushes_on_deadline_with_partial_batch() {
        let queue = BatchQueue::new(16);
        queue
            .submit(Pending::new(image(0), ResponseSlot::new()))
            .unwrap();
        let start = Instant::now();
        let batch = queue.next_batch(64, Duration::from_millis(30)).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline flush must not hang"
        );
    }

    #[test]
    fn full_queue_rejects_with_backpressure() {
        let queue = BatchQueue::new(2);
        for i in 0..2 {
            queue
                .submit(Pending::new(image(i), ResponseSlot::new()))
                .unwrap();
        }
        let err = queue
            .submit(Pending::new(image(2), ResponseSlot::new()))
            .unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { cap: 2 });
    }

    #[test]
    fn closed_queue_drains_then_stops() {
        let queue = BatchQueue::new(4);
        queue
            .submit(Pending::new(image(0), ResponseSlot::new()))
            .unwrap();
        queue.close();
        assert!(matches!(
            queue.submit(Pending::new(image(1), ResponseSlot::new())),
            Err(SubmitError::Closed)
        ));
        let drained = queue.next_batch(8, Duration::from_millis(1)).unwrap();
        assert_eq!(drained.len(), 1);
        assert!(queue.next_batch(8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn slot_times_out_when_never_filled() {
        let slot = ResponseSlot::new();
        assert!(slot.wait(Duration::from_millis(10)).is_none());
    }

    #[test]
    fn slot_notifier_fires_once_on_fill_and_take_consumes() {
        let slot = ResponseSlot::new();
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        assert!(slot.take().is_none(), "empty slot yields nothing");
        {
            let fired = Arc::clone(&fired);
            slot.set_notifier(move || {
                fired.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        slot.fill(Err("first".into()));
        slot.fill(Err("second fill is ignored".into()));
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
        let outcome = slot.take().expect("filled");
        assert_eq!(outcome.unwrap_err(), "first");
        assert!(slot.take().is_none(), "take consumes the outcome");
    }

    #[test]
    fn mixed_tier_batch_splits_into_per_tier_sub_batches() {
        // Exact and ideal carry different weights (different seeds), so a
        // request routed to the wrong tier would produce the wrong scores.
        let models = TierModels {
            exact: tiny_model(),
            ideal: Some(Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(1, 4, 3, 1, 1, 21)),
                Layer::ReLU(ReLU::new()),
                Layer::MaxPool2d(MaxPool2d::new(2, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(4 * 4 * 4, 3, 23)),
            ])),
        };
        let mut reference = models.clone();
        let queue = BatchQueue::new(16);
        let worker = {
            let queue = Arc::clone(&queue);
            let mut models = models.clone();
            thread::spawn(move || {
                while let Some(batch) = queue.next_batch(16, Duration::from_millis(20)) {
                    run_tier_batches(&mut models, &[1, 8, 8], batch);
                }
            })
        };
        // 2 exact + 2 ideal requests land in one pulled batch.
        let tiers = [Tier::Exact, Tier::Ideal, Tier::Exact, Tier::Ideal];
        let slots: Vec<Arc<ResponseSlot>> = (0..4).map(|_| ResponseSlot::new()).collect();
        for (i, (tier, slot)) in tiers.iter().zip(&slots).enumerate() {
            queue
                .submit(Pending::for_tier(*tier, image(i), Arc::clone(slot)))
                .unwrap();
        }
        for (i, (tier, slot)) in tiers.iter().zip(&slots).enumerate() {
            let outcome = slot
                .wait(Duration::from_secs(5))
                .expect("filled")
                .expect("ok");
            // Ground truth: the same input through that tier's model alone.
            let single = ResponseSlot::new();
            classify_batch(
                reference.model_mut(*tier).unwrap(),
                &[1, 8, 8],
                vec![Pending::for_tier(*tier, image(i), Arc::clone(&single))],
            );
            let expected = single
                .wait(Duration::from_secs(5))
                .expect("filled")
                .expect("ok");
            assert_eq!(
                outcome.scores, expected.scores,
                "request {i} must run on the {tier} weights"
            );
            assert!(
                outcome.batch_size <= 2,
                "sub-batch holds at most the requests of its own tier, \
                 got {}",
                outcome.batch_size
            );
        }
        queue.close();
        worker.join().unwrap();
    }

    #[test]
    fn unavailable_tier_fails_the_request_instead_of_hanging() {
        let mut models = TierModels::exact_only(tiny_model());
        let queue = BatchQueue::new(4);
        let slot = ResponseSlot::new();
        queue
            .submit(Pending::for_tier(Tier::Ideal, image(0), Arc::clone(&slot)))
            .unwrap();
        queue.close();
        while let Some(batch) = queue.next_batch(4, Duration::from_millis(1)) {
            run_tier_batches(&mut models, &[1, 8, 8], batch);
        }
        let err = slot
            .wait(Duration::from_secs(1))
            .expect("filled")
            .expect_err("no ideal model loaded");
        assert!(err.contains("no model loaded"), "{err}");
    }

    #[test]
    fn worker_thread_serves_submissions_until_close() {
        let queue = BatchQueue::new(8);
        let meta_shape = [1usize, 8, 8];
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut model = tiny_model();
                while let Some(batch) = queue.next_batch(4, Duration::from_millis(5)) {
                    classify_batch(&mut model, &meta_shape, batch);
                }
            })
        };
        let slot = ResponseSlot::new();
        queue
            .submit(Pending::new(image(3), Arc::clone(&slot)))
            .unwrap();
        let outcome = slot
            .wait(Duration::from_secs(5))
            .expect("filled")
            .expect("ok");
        assert_eq!(outcome.scores.len(), 3);
        let total: f32 = outcome.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-5, "softmax sums to 1, got {total}");
        queue.close();
        worker.join().unwrap();
    }
}
