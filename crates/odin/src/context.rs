//! The ODIN process (master) and its persistent worker pool (paper Fig. 1).
//!
//! The master owns array *handles* and broadcasts small control commands;
//! workers own the array *segments*, execute commands in order, and
//! communicate directly with each other over a [`comm`] communicator —
//! never through the master — for redistributions, slicing, reductions and
//! local-mode functions. Control messages can be *batched*
//! ([`OdinContext::begin_batch`]) "for the frequent case when
//! communication latency is significant" (§III-B).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use comm::{Comm, Cursor, Universe, UniverseConfig, Wire};
use dlinalg::DistVector;

use crate::error::{OdinError, RecoveryReport};

use crate::buffer::{Buffer, DType};
use crate::protocol::{ArrayMeta, Cmd, Dist, Fill, KernelOut, ReduceKind, ReplyMsg};
use crate::slicing::{redistribute_worker, slice_worker};

/// Signature of a registered local-mode function (the `@odin.local`
/// decorator analog): it runs on every worker with direct access to the
/// worker's scope and the call's array/scalar arguments.
pub type LocalFn = Arc<dyn Fn(&mut WorkerScope<'_>, &[u64], &[f64]) + Send + Sync>;

enum ToWorker {
    /// One or more concatenated Wire-encoded commands. `flow` is the
    /// control-plane flow id of the dispatch (`obs::flow`, 0 when tracing
    /// is off) — the worker's execution span consumes it, which is what
    /// draws master→worker arrows in the trace.
    Bytes { bytes: Vec<u8>, flow: u64 },
    /// Broadcast a local-mode function object (the paper's decorator
    /// "broadcasts the resulting function object to all worker nodes").
    Register { id: u64, f: LocalFn },
}

/// Configuration of an ODIN context.
#[derive(Debug, Clone, Copy)]
pub struct OdinConfig {
    /// Number of workers.
    pub n_workers: usize,
    /// Cost model for the worker communicator.
    pub model: comm::NetworkModel,
    /// Collective algorithm for worker collectives.
    pub algo: comm::CollectiveAlgo,
    /// Seeded fault schedule injected into the worker communicator (E18).
    pub fault: comm::FaultPlan,
    /// Delivery mode of worker↔worker messages; [`comm::Delivery::Reliable`]
    /// heals injected drop/dup/corrupt faults transparently.
    pub delivery: comm::Delivery,
    /// Deadline for worker-side blocking communication, so a worker whose
    /// peer was killed errors out instead of deadlocking. Set this
    /// whenever the fault plan can kill a rank.
    pub stall_timeout: Option<Duration>,
    /// How long the master waits on a reply from a *live but silent*
    /// worker before declaring it dead. A worker whose channels closed is
    /// detected within milliseconds regardless of this setting.
    pub reply_timeout: Option<Duration>,
    /// Payload-size cutoff (encoded bytes) above which worker↔worker and
    /// worker→master payloads move as zero-copy regions instead of wire
    /// bytes. Forwarded to the worker communicator; `usize::MAX` forces
    /// every payload onto the encode path.
    pub zerocopy_threshold: usize,
    /// Forwarded to the worker communicator: stamp zero-copy regions
    /// with an FNV digest of their wire encoding and verify it at typed
    /// receives (see [`comm::UniverseConfig::region_integrity`]). Off by
    /// default.
    pub region_integrity: bool,
}

impl Default for OdinConfig {
    fn default() -> Self {
        OdinConfig {
            n_workers: 4,
            model: comm::NetworkModel::default(),
            algo: comm::CollectiveAlgo::default(),
            fault: comm::FaultPlan::none(),
            delivery: comm::Delivery::Raw,
            stall_timeout: None,
            reply_timeout: None,
            zerocopy_threshold: comm::DEFAULT_ZEROCOPY_THRESHOLD,
            region_integrity: false,
        }
    }
}

impl OdinConfig {
    /// Set the worker count.
    #[must_use]
    pub fn with_n_workers(mut self, n: usize) -> Self {
        self.n_workers = n;
        self
    }

    /// Set the network cost model.
    #[must_use]
    pub fn with_model(mut self, model: comm::NetworkModel) -> Self {
        self.model = model;
        self
    }

    /// Set the collective algorithm family.
    #[must_use]
    pub fn with_algo(mut self, algo: comm::CollectiveAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Set the injected fault schedule.
    #[must_use]
    pub fn with_fault(mut self, fault: comm::FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Set the delivery mode of worker↔worker messages.
    #[must_use]
    pub fn with_delivery(mut self, delivery: comm::Delivery) -> Self {
        self.delivery = delivery;
        self
    }

    /// Set the worker-side blocking-communication deadline.
    #[must_use]
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = Some(timeout);
        self
    }

    /// Set how long the master waits on a silent worker's reply.
    #[must_use]
    pub fn with_reply_timeout(mut self, timeout: Duration) -> Self {
        self.reply_timeout = Some(timeout);
        self
    }

    /// Set the zero-copy payload threshold (encoded bytes).
    #[must_use]
    pub fn with_zerocopy_threshold(mut self, bytes: usize) -> Self {
        self.zerocopy_threshold = bytes;
        self
    }

    /// Enable the FNV integrity check on worker zero-copy regions.
    #[must_use]
    pub fn with_region_integrity(mut self, on: bool) -> Self {
        self.region_integrity = on;
        self
    }
}

/// Master-side instrumentation (the paper's §III-J bottleneck
/// instrumentation goal): control vs data traffic, separately.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContextStats {
    /// Control commands issued (each broadcast counts once per worker).
    pub ctrl_msgs: u64,
    /// Total control bytes.
    pub ctrl_bytes: u64,
    /// Data-carrying messages (SetData / Fetch replies).
    pub data_msgs: u64,
    /// Total data bytes.
    pub data_bytes: u64,
    /// Physical channel sends (batching reduces this, not ctrl_msgs).
    pub channel_sends: u64,
}

impl ContextStats {
    /// Mean control-command size in bytes.
    pub fn mean_ctrl_bytes(&self) -> f64 {
        if self.ctrl_msgs == 0 {
            0.0
        } else {
            self.ctrl_bytes as f64 / self.ctrl_msgs as f64
        }
    }
}

/// Demultiplexer for worker replies. Workers execute commands in FIFO
/// order, so the `k`-th reply to arrive from a worker always answers the
/// `k`-th reply-bearing command the master sent it — a *ticket*. Replies
/// that arrive before their ticket is claimed are buffered; tickets whose
/// [`Pending`] was dropped are discarded on arrival so the stream never
/// desynchronizes.
#[derive(Default)]
struct ReplyEngine {
    /// Tickets issued per worker (reply-bearing commands dispatched).
    issued: Vec<u64>,
    /// Replies consumed from the channel per worker.
    arrived: Vec<u64>,
    /// Arrived but not yet claimed, keyed by `(worker, ticket)`.
    buffered: HashMap<(usize, u64), ReplyMsg>,
    /// Tickets whose `Pending` was dropped before the reply arrived.
    abandoned: HashSet<(usize, u64)>,
}

/// Decoder applied to the raw replies when a [`Pending`] is waited.
type Decode<T> = Box<dyn FnOnce(Vec<ReplyMsg>) -> T>;

/// A reply future: the handle returned by pipelined dispatch. Dropping it
/// abandons the reply (the engine discards it on arrival); [`Pending::wait`]
/// first flushes any open command batch, so waiting inside a batch can
/// never deadlock.
#[must_use = "dropping a Pending abandons its reply; call wait() (or hold it to overlap master-side work with the workers)"]
pub struct Pending<'c, T> {
    ctx: &'c OdinContext,
    tickets: Vec<(usize, u64)>,
    seq: u64,
    span_name: &'static str,
    decode: Option<Decode<T>>,
}

impl<'c, T> Pending<'c, T> {
    /// Dispatch sequence number of the command this reply answers.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether every reply has already arrived (non-blocking).
    pub fn ready(&mut self) -> bool {
        self.ctx.tickets_ready(&self.tickets)
    }

    /// Block until every reply arrives and decode the result. Flushes any
    /// open command batch first. Panics with the [`OdinError`] diagnostic
    /// if a worker dies; use [`Self::try_wait`] for a typed error.
    pub fn wait(mut self) -> T {
        let tickets = std::mem::take(&mut self.tickets);
        let replies = self.ctx.await_tickets(&tickets, self.seq, self.span_name);
        (self.decode.take().expect("pending waited twice"))(replies)
    }

    /// Fallible [`Self::wait`]: a dead or silent worker yields
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic or a
    /// hang.
    pub fn try_wait(mut self) -> Result<T, OdinError> {
        let tickets = std::mem::take(&mut self.tickets);
        let replies = self
            .ctx
            .try_await_tickets(&tickets, self.seq, self.span_name)?;
        Ok((self.decode.take().expect("pending waited twice"))(replies))
    }

    /// Post-process the decoded reply once it arrives.
    pub fn map<U>(mut self, f: impl FnOnce(T) -> U + 'static) -> Pending<'c, U>
    where
        T: 'static,
    {
        let tickets = std::mem::take(&mut self.tickets);
        let decode = self.decode.take().expect("pending waited twice");
        Pending {
            ctx: self.ctx,
            tickets,
            seq: self.seq,
            span_name: self.span_name,
            decode: Some(Box::new(move |replies| f(decode(replies)))),
        }
    }
}

impl<T> Drop for Pending<'_, T> {
    fn drop(&mut self) {
        self.ctx.abandon_tickets(&self.tickets);
    }
}

/// Interval at which a blocked reply wait probes worker liveness.
const PROBE_TICK: Duration = Duration::from_millis(20);

/// A master-side snapshot of selected arrays: id, metadata and the full
/// gathered data, taken with [`OdinContext::checkpoint`] and replayed by
/// [`OdinContext::recover`] after a worker death.
pub struct OdinCheckpoint {
    arrays: Vec<(u64, ArrayMeta, Buffer)>,
}

impl OdinCheckpoint {
    /// A checkpoint covering no arrays. [`OdinContext::recover`] with an
    /// empty checkpoint still respawns the pool and replays the local-fn
    /// and kernel registries — the right input when every live array is
    /// reconstructible from its job spec (the serving plane's case).
    pub fn empty() -> Self {
        OdinCheckpoint { arrays: Vec::new() }
    }

    /// Ids covered by this checkpoint.
    pub fn array_ids(&self) -> Vec<u64> {
        self.arrays.iter().map(|&(id, ..)| id).collect()
    }
}

impl Default for OdinCheckpoint {
    fn default() -> Self {
        Self::empty()
    }
}

/// The ODIN master process.
pub struct OdinContext {
    n_workers: usize,
    config: OdinConfig,
    to_workers: RefCell<Vec<Sender<ToWorker>>>,
    from_workers: RefCell<Receiver<(usize, ReplyMsg)>>,
    pool: RefCell<Option<comm::universe::Detached<()>>>,
    /// Workers whose command channel was found closed (thread exited).
    dead: RefCell<Vec<bool>>,
    /// Arrays whose segments died with a respawned pool (no checkpoint).
    lost: RefCell<HashSet<u64>>,
    /// Registered local functions, kept so a respawned pool can be
    /// re-seeded with them.
    local_fns: RefCell<Vec<(u64, LocalFn)>>,
    /// Registered kernel bytecode, kept so a respawned pool can be
    /// re-registered with it (same ids, same programs).
    kernels: RefCell<Vec<(u64, seamless::bytecode::Program)>>,
    /// Structural kernel cache: encoded program bytes → registered id, so
    /// re-evaluating the same expression registers nothing twice.
    kernel_cache: RefCell<HashMap<Vec<u8>, u64>>,
    next_id: Cell<u64>,
    next_fn: Cell<u64>,
    next_kernel: Cell<u64>,
    pub(crate) metas: RefCell<HashMap<u64, ArrayMeta>>,
    stats: RefCell<ContextStats>,
    batch: RefCell<Option<Vec<Vec<u8>>>>,
    engine: RefCell<ReplyEngine>,
    /// Monotonic dispatch counter (every command gets a sequence number).
    cmd_seq: Cell<u64>,
    /// Sequence number of the last command touching each array.
    array_seq: RefCell<HashMap<u64, u64>>,
    /// Highest sequence number proven complete per worker (a claimed
    /// reply proves everything up to its command executed, FIFO).
    worker_done_seq: RefCell<Vec<u64>>,
}

/// Spawn a fresh worker pool under `fault` (recovery respawns with the
/// plan cleared so the same kill does not fire again).
#[allow(clippy::type_complexity)]
fn spawn_pool(
    config: &OdinConfig,
    fault: comm::FaultPlan,
) -> (
    Vec<Sender<ToWorker>>,
    Receiver<(usize, ReplyMsg)>,
    comm::universe::Detached<()>,
) {
    let (reply_tx, reply_rx) = channel::<(usize, ReplyMsg)>();
    let mut to_workers = Vec::with_capacity(config.n_workers);
    type WorkerSeed = (Receiver<ToWorker>, Sender<(usize, ReplyMsg)>);
    let mut seeds: Vec<Option<WorkerSeed>> = Vec::with_capacity(config.n_workers);
    for _ in 0..config.n_workers {
        let (tx, rx) = channel::<ToWorker>();
        to_workers.push(tx);
        seeds.push(Some((rx, reply_tx.clone())));
    }
    let ucfg = UniverseConfig {
        model: config.model,
        algo: config.algo,
        stall_timeout: config.stall_timeout,
        fault,
        delivery: config.delivery,
        zerocopy_threshold: config.zerocopy_threshold,
        region_integrity: config.region_integrity,
    };
    let pool = Universe::spawn(
        ucfg,
        config.n_workers,
        move |rank| seeds[rank].take().expect("seed used once"),
        |comm, (rx, reply)| worker_main(comm, rx, reply),
    );
    (to_workers, reply_rx, pool)
}

impl OdinContext {
    /// Spawn the worker pool.
    pub fn new(config: OdinConfig) -> Self {
        assert!(config.n_workers > 0);
        let (to_workers, reply_rx, pool) = spawn_pool(&config, config.fault);
        OdinContext {
            n_workers: config.n_workers,
            config,
            to_workers: RefCell::new(to_workers),
            from_workers: RefCell::new(reply_rx),
            pool: RefCell::new(Some(pool)),
            dead: RefCell::new(vec![false; config.n_workers]),
            lost: RefCell::new(HashSet::new()),
            local_fns: RefCell::new(Vec::new()),
            kernels: RefCell::new(Vec::new()),
            kernel_cache: RefCell::new(HashMap::new()),
            next_id: Cell::new(1),
            next_fn: Cell::new(1),
            next_kernel: Cell::new(1),
            metas: RefCell::new(HashMap::new()),
            stats: RefCell::new(ContextStats::default()),
            batch: RefCell::new(None),
            engine: RefCell::new(ReplyEngine {
                issued: vec![0; config.n_workers],
                arrived: vec![0; config.n_workers],
                ..Default::default()
            }),
            cmd_seq: Cell::new(0),
            array_seq: RefCell::new(HashMap::new()),
            worker_done_seq: RefCell::new(vec![0; config.n_workers]),
        }
    }

    /// Convenience constructor with `n` workers and defaults otherwise.
    pub fn with_workers(n: usize) -> Self {
        Self::new(OdinConfig {
            n_workers: n,
            ..Default::default()
        })
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ContextStats {
        *self.stats.borrow()
    }

    /// Reset counters (benchmarks call this between phases).
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = ContextStats::default();
    }

    /// Fresh array id.
    pub(crate) fn alloc_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    pub(crate) fn meta_of(&self, id: u64) -> ArrayMeta {
        if self.lost.borrow().contains(&id) {
            panic!(
                "array {id} was lost when the worker pool was respawned \
                 without a checkpoint covering it"
            );
        }
        self.metas
            .borrow()
            .get(&id)
            .unwrap_or_else(|| panic!("unknown array id {id}"))
            .clone()
    }

    pub(crate) fn record_meta(&self, id: u64, meta: ArrayMeta) {
        self.metas.borrow_mut().insert(id, meta);
    }

    pub(crate) fn forget_meta(&self, id: u64) {
        self.metas.borrow_mut().remove(&id);
    }

    /// The master thread is not a simulated rank, so its spans use wall
    /// time on both axes; §III-J control-vs-data traffic lands in the
    /// registry under `odin.ctrl_*` / `odin.data_*`.
    #[cold]
    fn obs_ctrl(&self, cmd_bytes: usize, batched: bool, timer: obs::span::SpanTimer, flow: u64) {
        timer.finish_meta(
            "odin",
            if batched {
                "dispatch(batched)"
            } else {
                "dispatch"
            },
            obs::span::wall_now_s(),
            &[
                ("cmd_bytes", cmd_bytes as f64),
                ("workers", self.n_workers as f64),
            ],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Other,
                flow_out: flow,
                flow_in: 0,
            },
        );
        let g = obs::global();
        g.counter("odin.ctrl_msgs").add(self.n_workers as u64);
        g.counter("odin.ctrl_bytes")
            .add((cmd_bytes * self.n_workers) as u64);
        g.histogram("odin.ctrl_cmd_bytes").record(cmd_bytes as u64);
        g.gauge("odin.mean_ctrl_bytes")
            .set(self.stats.borrow().mean_ctrl_bytes());
    }

    #[cold]
    fn obs_data(
        &self,
        name: &'static str,
        msgs: u64,
        bytes: u64,
        timer: obs::span::SpanTimer,
        flow: u64,
    ) {
        timer.finish_meta(
            "odin",
            name,
            obs::span::wall_now_s(),
            &[("msgs", msgs as f64), ("bytes", bytes as f64)],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Other,
                flow_out: flow,
                flow_in: 0,
            },
        );
        let g = obs::global();
        g.counter("odin.data_msgs").add(msgs);
        g.counter("odin.data_bytes").add(bytes);
    }

    fn obs_timer(&self) -> Option<obs::span::SpanTimer> {
        if obs::enabled() {
            Some(obs::span::span_start(obs::span::wall_now_s()))
        } else {
            None
        }
    }

    /// Control-plane flow id for one dispatch: allocated only while
    /// tracing (the timer is the "enabled" witness). Every worker copy of
    /// the dispatch carries the same id — the graph then draws one
    /// master→worker edge per consuming worker.
    fn ctrl_flow(timer: &Option<obs::span::SpanTimer>) -> u64 {
        if timer.is_some() {
            obs::flow::next_ctrl()
        } else {
            obs::flow::NONE
        }
    }

    /// Begin buffering control commands; nothing is sent until
    /// [`Self::flush_batch`]. Models the paper's latency-amortizing
    /// message buffering.
    pub fn begin_batch(&self) {
        let mut b = self.batch.borrow_mut();
        assert!(b.is_none(), "batch already open");
        *b = Some((0..self.n_workers).map(|_| Vec::new()).collect());
    }

    /// Best-effort send to one worker. A closed channel means the worker
    /// thread exited (killed, panicked, or shut down); instead of
    /// panicking, the death is recorded and surfaces as a typed
    /// [`OdinError::WorkerDead`] at the next reply wait or
    /// [`Self::health_check`].
    fn worker_send(&self, worker: usize, msg: ToWorker) {
        if self.to_workers.borrow()[worker].send(msg).is_err() {
            self.dead.borrow_mut()[worker] = true;
        }
    }

    /// Liveness probe: an empty command block is a no-op on a live worker
    /// but fails to send if its thread has exited.
    fn probe_worker(&self, worker: usize) {
        self.worker_send(
            worker,
            ToWorker::Bytes {
                bytes: Vec::new(),
                flow: 0,
            },
        );
    }

    /// Send all buffered commands, one channel message per worker.
    pub fn flush_batch(&self) {
        let timer = self.obs_timer();
        let flow = Self::ctrl_flow(&timer);
        let bufs = self.batch.borrow_mut().take().expect("no open batch");
        let mut sends = 0u64;
        let mut flushed_bytes = 0u64;
        for (w, bytes) in bufs.into_iter().enumerate() {
            if !bytes.is_empty() {
                {
                    let mut st = self.stats.borrow_mut();
                    st.channel_sends += 1;
                }
                sends += 1;
                flushed_bytes += bytes.len() as u64;
                self.worker_send(w, ToWorker::Bytes { bytes, flow });
            }
        }
        if let Some(t) = timer {
            t.finish_meta(
                "odin",
                "flush_batch",
                obs::span::wall_now_s(),
                &[("sends", sends as f64), ("bytes", flushed_bytes as f64)],
                obs::span::SpanMeta {
                    kind: obs::span::SpanKind::Other,
                    flow_out: flow,
                    flow_in: 0,
                },
            );
        }
    }

    /// Record a command's dispatch: bump the sequence counter and stamp
    /// every array it touches, so independent commands can be told apart
    /// while both are in flight.
    fn note_dispatch(&self, cmd: &Cmd) {
        let seq = self.cmd_seq.get() + 1;
        self.cmd_seq.set(seq);
        let mut touched = self.array_seq.borrow_mut();
        let mut touch = |id: u64| {
            touched.insert(id, seq);
        };
        match cmd {
            Cmd::Create { id, .. } | Cmd::SetData { id, .. } => touch(*id),
            Cmd::Free { id } => {
                touched.remove(id);
            }
            Cmd::AsType { out, a, .. }
            | Cmd::Redistribute { out, a, .. }
            | Cmd::Slice { out, a, .. }
            | Cmd::CumSum { out, a } => {
                touch(*out);
                touch(*a);
            }
            Cmd::Concat { out, a, b } | Cmd::MatMul { out, a, b } => {
                touch(*out);
                touch(*a);
                touch(*b);
            }
            Cmd::Select { out, cond, a, b } => {
                touch(*out);
                touch(*cond);
                touch(*a);
                touch(*b);
            }
            Cmd::Reduce { a, out, axis, .. } => {
                touch(*a);
                if axis.is_some() {
                    touch(*out);
                }
            }
            Cmd::ArgReduce { a, .. } | Cmd::Fetch { a } => touch(*a),
            Cmd::CallLocal { arrays, .. } => {
                for &id in arrays {
                    touch(id);
                }
            }
            Cmd::EvalKernelMulti { inputs, outs, .. } => {
                for &id in inputs {
                    touch(id);
                }
                for o in outs {
                    if let KernelOut::Array { id, .. } = o {
                        touch(*id);
                    }
                }
            }
            Cmd::Ping | Cmd::Shutdown | Cmd::RegisterKernel { .. } => {}
        }
    }

    /// Broadcast a control command to every worker.
    pub(crate) fn send_cmd(&self, cmd: &Cmd) {
        self.note_dispatch(cmd);
        let timer = self.obs_timer();
        let mut bytes = comm::encode_to_vec(cmd);
        let n_bytes = bytes.len();
        {
            let mut st = self.stats.borrow_mut();
            st.ctrl_msgs += self.n_workers as u64;
            st.ctrl_bytes += (n_bytes * self.n_workers) as u64;
        }
        let mut batch = self.batch.borrow_mut();
        if let Some(bufs) = batch.as_mut() {
            for buf in bufs.iter_mut() {
                buf.extend_from_slice(&bytes);
            }
            drop(batch);
            if let Some(t) = timer {
                // Batched: nothing sent yet; the flush span owns the flow.
                self.obs_ctrl(n_bytes, true, t, 0);
            }
            return;
        }
        drop(batch);
        let flow = Self::ctrl_flow(&timer);
        self.stats.borrow_mut().channel_sends += self.n_workers as u64;
        // The last worker takes ownership of the encoded command; only
        // the first n−1 sends pay for a copy.
        for w in 0..self.n_workers {
            let payload = if w + 1 == self.n_workers {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            self.worker_send(
                w,
                ToWorker::Bytes {
                    bytes: payload,
                    flow,
                },
            );
        }
        if let Some(t) = timer {
            self.obs_ctrl(n_bytes, false, t, flow);
        }
    }

    /// Send a worker-specific (data-carrying) command. Data commands
    /// cannot ride in a batch, so an open batch is flushed first to keep
    /// command order intact.
    pub(crate) fn send_cmd_to(&self, worker: usize, cmd: &Cmd) {
        self.flush_open_batch();
        self.note_dispatch(cmd);
        let timer = self.obs_timer();
        let bytes = comm::encode_to_vec(cmd);
        let n = bytes.len() as u64;
        {
            let mut st = self.stats.borrow_mut();
            st.data_msgs += 1;
            st.data_bytes += n;
            st.channel_sends += 1;
        }
        let flow = Self::ctrl_flow(&timer);
        self.worker_send(worker, ToWorker::Bytes { bytes, flow });
        if let Some(t) = timer {
            self.obs_data("send_data", 1, n, t, flow);
        }
    }

    /// Register a local-mode function on every worker; returns its id.
    /// The function is remembered so a respawned pool is re-seeded with it.
    pub fn register_local(&self, f: LocalFn) -> u64 {
        let id = self.next_fn.get();
        self.next_fn.set(id + 1);
        for w in 0..self.n_workers {
            self.worker_send(
                w,
                ToWorker::Register {
                    id,
                    f: Arc::clone(&f),
                },
            );
        }
        self.local_fns.borrow_mut().push((id, f));
        id
    }

    /// Invoke a registered local function on every worker (global-mode
    /// view of a local function, §III-C).
    pub fn call_local(&self, fn_id: u64, arrays: &[u64], scalars: &[f64]) {
        self.send_cmd(&Cmd::CallLocal {
            fn_id,
            arrays: arrays.to_vec(),
            scalars: scalars.to_vec(),
        });
    }

    /// Ship compiled Seamless bytecode to every worker and return the
    /// kernel id [`Cmd::EvalKernelMulti`] launches reference. Bitwise-identical
    /// programs are deduplicated through a structural cache, so each
    /// distinct kernel's code crosses the channel exactly once per pool;
    /// the program is also remembered for re-registration after
    /// [`Self::recover`] respawns the pool.
    pub(crate) fn register_kernel_program(&self, program: seamless::bytecode::Program) -> u64 {
        assert!(
            program.externs.is_empty(),
            "kernels with foreign functions cannot ship to workers \
             (native fn pointers have no wire encoding)"
        );
        let key = comm::encode_to_vec(&program);
        if let Some(&id) = self.kernel_cache.borrow().get(&key) {
            if obs::enabled() {
                obs::global().counter("odin.kernel.cache_hit").add(1);
            }
            return id;
        }
        let id = self.next_kernel.get();
        self.next_kernel.set(id + 1);
        self.send_cmd(&Cmd::RegisterKernel {
            id,
            program: program.clone(),
        });
        if obs::enabled() {
            let g = obs::global();
            g.counter("odin.kernel.cache_miss").add(1);
            g.counter("odin.kernel.registered").add(1);
        }
        self.kernels.borrow_mut().push((id, program));
        self.kernel_cache.borrow_mut().insert(key, id);
        id
    }

    // ---- pipelined reply engine -------------------------------------------

    /// Flush the open batch if there is one (every reply-wait path calls
    /// this, so waiting on a reply issued inside a batch cannot deadlock).
    pub(crate) fn flush_open_batch(&self) {
        if self.batch.borrow().is_some() {
            self.flush_batch();
        }
    }

    /// Reserve the next reply ticket from `worker`.
    fn issue_ticket(&self, worker: usize) -> (usize, u64) {
        let mut eng = self.engine.borrow_mut();
        let t = eng.issued[worker];
        eng.issued[worker] += 1;
        (worker, t)
    }

    /// Account one reply pulled off the channel and assign its ticket.
    /// Returns `None` when the ticket was abandoned (reply discarded).
    fn admit_arrival(&self, rank: usize, msg: ReplyMsg) -> Option<((usize, u64), ReplyMsg)> {
        {
            let mut st = self.stats.borrow_mut();
            st.data_msgs += 1;
            // Encoded-equivalent size either way, so byte accounting does
            // not depend on which payload arm the reply took.
            st.data_bytes += msg.wire_len() as u64;
        }
        let mut eng = self.engine.borrow_mut();
        let t = eng.arrived[rank];
        eng.arrived[rank] += 1;
        let key = (rank, t);
        if eng.abandoned.remove(&key) {
            return None;
        }
        Some((key, msg))
    }

    /// Block until the reply for `want` arrives, buffering any replies
    /// that belong to other in-flight tickets. Bounded: a worker whose
    /// thread exited is detected by the liveness probe within
    /// [`PROBE_TICK`], and a live-but-silent worker trips
    /// [`OdinConfig::reply_timeout`] when one is set — either way the
    /// wait ends with a typed [`OdinError`], never a hang.
    fn try_claim_ticket(&self, want: (usize, u64)) -> Result<ReplyMsg, OdinError> {
        if let Some(msg) = self.engine.borrow_mut().buffered.remove(&want) {
            return Ok(msg);
        }
        let t0 = Instant::now();
        loop {
            let tick = match self.config.reply_timeout {
                Some(limit) => match limit.checked_sub(t0.elapsed()) {
                    None | Some(Duration::ZERO) => {
                        return Err(OdinError::WorkerDead {
                            worker: want.0,
                            waited: t0.elapsed(),
                        })
                    }
                    Some(left) => left.min(PROBE_TICK),
                },
                None => PROBE_TICK,
            };
            let received = self.from_workers.borrow().recv_timeout(tick);
            match received {
                Ok((rank, msg)) => {
                    if let Some((key, msg)) = self.admit_arrival(rank, msg) {
                        if key == want {
                            return Ok(msg);
                        }
                        self.engine.borrow_mut().buffered.insert(key, msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.probe_worker(want.0);
                    if self.dead.borrow()[want.0] {
                        // Drain stragglers in case the worker replied just
                        // before dying, then give up with a diagnostic.
                        self.poll_arrivals();
                        if let Some(msg) = self.engine.borrow_mut().buffered.remove(&want) {
                            return Ok(msg);
                        }
                        return Err(OdinError::WorkerDead {
                            worker: want.0,
                            waited: t0.elapsed(),
                        });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(OdinError::PoolDown),
            }
        }
    }

    /// Pull every already-arrived reply into the buffer (non-blocking).
    fn poll_arrivals(&self) {
        loop {
            let received = self.from_workers.borrow().try_recv();
            match received {
                Ok((rank, msg)) => {
                    if let Some((key, msg)) = self.admit_arrival(rank, msg) {
                        self.engine.borrow_mut().buffered.insert(key, msg);
                    }
                }
                Err(_) => break,
            }
        }
    }

    fn tickets_ready(&self, tickets: &[(usize, u64)]) -> bool {
        self.poll_arrivals();
        let eng = self.engine.borrow();
        tickets.iter().all(|k| eng.buffered.contains_key(k))
    }

    /// Forget tickets whose `Pending` was dropped: discard buffered
    /// replies now, mark the rest for discard on arrival.
    fn abandon_tickets(&self, tickets: &[(usize, u64)]) {
        if tickets.is_empty() {
            return;
        }
        let mut eng = self.engine.borrow_mut();
        for &key in tickets {
            if eng.buffered.remove(&key).is_none() {
                eng.abandoned.insert(key);
            }
        }
    }

    /// Claim `tickets` in order and mark dispatch `seq` complete on the
    /// workers that answered. Panics with the [`OdinError`] diagnostic on
    /// worker death; fallible callers use [`Self::try_await_tickets`].
    fn await_tickets(
        &self,
        tickets: &[(usize, u64)],
        seq: u64,
        name: &'static str,
    ) -> Vec<ReplyMsg> {
        self.try_await_tickets(tickets, seq, name)
            .unwrap_or_else(|e| panic!("odin reply wait failed: {e}"))
    }

    /// Fallible [`Self::await_tickets`]: returns a typed error instead of
    /// panicking when a worker dies or times out.
    fn try_await_tickets(
        &self,
        tickets: &[(usize, u64)],
        seq: u64,
        name: &'static str,
    ) -> Result<Vec<ReplyMsg>, OdinError> {
        self.flush_open_batch();
        let timer = self.obs_timer();
        let mut out = Vec::with_capacity(tickets.len());
        let mut reply_bytes = 0u64;
        for (i, &key) in tickets.iter().enumerate() {
            match self.try_claim_ticket(key) {
                Ok(msg) => {
                    reply_bytes += msg.wire_len() as u64;
                    out.push(msg);
                }
                Err(e) => {
                    // Abandon the unclaimed remainder so late replies from
                    // surviving workers are discarded, not leaked.
                    self.abandon_tickets(&tickets[i..]);
                    return Err(e);
                }
            }
        }
        {
            let mut done = self.worker_done_seq.borrow_mut();
            for &(w, _) in tickets {
                if done[w] < seq {
                    done[w] = seq;
                }
            }
        }
        if let Some(t) = timer {
            self.obs_data(name, tickets.len() as u64, reply_bytes, t, 0);
        }
        Ok(out)
    }

    /// Reply future for one reply from every worker (worker order).
    pub(crate) fn pending_all(&self, span_name: &'static str) -> Pending<'_, Vec<ReplyMsg>> {
        let tickets = (0..self.n_workers).map(|w| self.issue_ticket(w)).collect();
        Pending {
            ctx: self,
            tickets,
            seq: self.cmd_seq.get(),
            span_name,
            decode: Some(Box::new(|replies| replies)),
        }
    }

    /// Reply future for a single worker-0 reply, raw bytes.
    pub(crate) fn pending_single_raw(&self, span_name: &'static str) -> Pending<'_, Vec<u8>> {
        let tickets = vec![self.issue_ticket(0)];
        Pending {
            ctx: self,
            tickets,
            seq: self.cmd_seq.get(),
            span_name,
            decode: Some(Box::new(|mut replies| {
                replies.pop().expect("single reply present").into_bytes()
            })),
        }
    }

    /// Reply future for a single worker-0 reply decoded as `T`.
    pub(crate) fn pending_single<T: Wire>(&self, span_name: &'static str) -> Pending<'_, T> {
        let tickets = vec![self.issue_ticket(0)];
        Pending {
            ctx: self,
            tickets,
            seq: self.cmd_seq.get(),
            span_name,
            decode: Some(Box::new(|mut replies| {
                let bytes = replies.pop().expect("single reply present").into_bytes();
                comm::decode_from_slice(&bytes).expect("bad reply encoding")
            })),
        }
    }

    /// Broadcast a command and return a future for one reply per worker —
    /// the pipelined dispatch primitive: the master keeps issuing commands
    /// while replies are still in flight.
    pub(crate) fn dispatch_all(&self, cmd: &Cmd) -> Pending<'_, Vec<ReplyMsg>> {
        self.send_cmd(cmd);
        self.pending_all("collect_replies")
    }

    /// Broadcast a command whose protocol says only worker 0 replies and
    /// return a typed future for that reply.
    pub(crate) fn dispatch_single<T: Wire>(&self, cmd: &Cmd) -> Pending<'_, T> {
        self.send_cmd(cmd);
        self.pending_single("collect_single_reply")
    }

    /// Highest dispatch sequence number issued so far.
    pub fn dispatch_seq(&self) -> u64 {
        self.cmd_seq.get()
    }

    /// Highest sequence number proven complete on **every** worker.
    pub fn completed_seq(&self) -> u64 {
        self.worker_done_seq
            .borrow()
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Whether a command touching array `id` may still be in flight.
    pub fn array_in_flight(&self, id: u64) -> bool {
        self.array_seq
            .borrow()
            .get(&id)
            .is_some_and(|&s| s > self.completed_seq())
    }

    /// Replies reserved by in-flight futures but not yet consumed.
    pub fn outstanding_replies(&self) -> u64 {
        let eng = self.engine.borrow();
        let issued: u64 = eng.issued.iter().sum();
        let arrived: u64 = eng.arrived.iter().sum();
        issued - arrived
    }

    /// Receive one reply from each worker, returned in worker order,
    /// collapsed to encoded bytes (reduction-style replies are always on
    /// the `Bytes` arm, so the collapse is free).
    pub(crate) fn collect_replies(&self) -> Vec<Vec<u8>> {
        self.pending_all("collect_replies")
            .wait()
            .into_iter()
            .map(ReplyMsg::into_bytes)
            .collect()
    }

    /// Drain `n` replies (used when several reply-bearing commands were
    /// batched). Broadcast commands produce one reply per worker, so `n`
    /// must be a multiple of the worker count.
    pub fn drain_replies(&self, n: usize) {
        assert!(
            n.is_multiple_of(self.n_workers),
            "drain_replies needs one reply per worker per command"
        );
        let per = n / self.n_workers;
        let tickets: Vec<(usize, u64)> = (0..self.n_workers)
            .flat_map(|w| std::iter::repeat_n(w, per))
            .map(|w| self.issue_ticket(w))
            .collect();
        let _ = self.await_tickets(&tickets, self.cmd_seq.get(), "drain_replies");
    }

    /// Receive a single reply (commands where only worker 0 replies).
    pub(crate) fn collect_single_reply(&self) -> Vec<u8> {
        self.pending_single_raw("collect_single_reply").wait()
    }

    /// Synchronize: all queued commands (batched or not) have completed
    /// when this returns.
    pub fn barrier(&self) {
        self.flush_open_batch();
        self.send_cmd(&Cmd::Ping);
        let _ = self.pending_all("barrier").wait();
    }

    /// Total modeled virtual time is only available at shutdown (the pool
    /// owns the clocks); this issues a Ping so the wall-clock of pending
    /// work is at least observable.
    pub fn sync(&self) {
        self.barrier();
    }

    /// Fallible [`Self::barrier`]: a dead worker surfaces as
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic.
    pub fn try_barrier(&self) -> Result<(), OdinError> {
        self.flush_open_batch();
        self.send_cmd(&Cmd::Ping);
        self.pending_all("barrier").try_wait().map(|_| ())
    }

    /// Heartbeat: probe every worker's command channel and round-trip a
    /// Ping. Returns the first dead worker as [`OdinError::WorkerDead`] —
    /// always in bounded time, never a hang.
    pub fn health_check(&self) -> Result<(), OdinError> {
        for w in 0..self.n_workers {
            self.probe_worker(w);
        }
        if let Some(w) = self.dead.borrow().iter().position(|&d| d) {
            return Err(OdinError::WorkerDead {
                worker: w,
                waited: Duration::ZERO,
            });
        }
        self.try_barrier()
    }

    /// Workers the master has found dead so far (diagnostics).
    pub fn dead_workers(&self) -> Vec<usize> {
        self.dead
            .borrow()
            .iter()
            .enumerate()
            .filter_map(|(w, &d)| d.then_some(w))
            .collect()
    }

    /// Snapshot the listed arrays to the master: full gathered data plus
    /// metadata, enough for [`Self::recover`] to replay every segment onto
    /// a fresh pool after a worker death.
    pub fn checkpoint(&self, arrays: &[&crate::array::DistArray<'_>]) -> OdinCheckpoint {
        let snap = arrays
            .iter()
            .map(|a| {
                let (_, data) = a.fetch();
                (a.id(), a.meta(), data)
            })
            .collect();
        OdinCheckpoint { arrays: snap }
    }

    /// Respawn the worker pool after a failure and replay every segment
    /// recorded in `ck` under its original array id. The new pool runs
    /// with the fault plan *cleared* so the same injected kill cannot fire
    /// again. Live arrays not covered by the checkpoint are marked lost:
    /// the report lists them and any later use panics with a diagnostic
    /// naming the respawn. Replies that were in flight at recovery time
    /// are discarded.
    pub fn recover(&self, ck: &OdinCheckpoint) -> RecoveryReport {
        // Fresh channels and threads first: swapping the senders in drops
        // the old ones, so surviving old workers see a closed channel and
        // exit their command loop.
        let (to_workers, reply_rx, pool) = spawn_pool(&self.config, comm::FaultPlan::none());
        let old_pool = self.pool.borrow_mut().replace(pool);
        *self.to_workers.borrow_mut() = to_workers;
        *self.from_workers.borrow_mut() = reply_rx;
        self.dead.borrow_mut().fill(false);
        if let Some(old) = old_pool {
            if self.config.stall_timeout.is_some() {
                // Worker-side waits are bounded, so the join is too.
                let _ = old.join_quiet();
            } else {
                // A survivor may be blocked forever in a collective with
                // the killed peer; don't let teardown inherit the hang.
                old.abandon();
            }
        }
        // Outstanding tickets can never be answered by the new pool:
        // consider them consumed so fresh replies get fresh tickets.
        {
            let mut eng = self.engine.borrow_mut();
            let issued = eng.issued.clone();
            eng.arrived = issued;
            eng.buffered.clear();
            eng.abandoned.clear();
        }
        self.worker_done_seq.borrow_mut().fill(self.cmd_seq.get());
        // Re-seed the pool: local functions and kernel bytecode first,
        // then checkpointed segments.
        for (id, f) in self.local_fns.borrow().iter() {
            for w in 0..self.n_workers {
                self.worker_send(
                    w,
                    ToWorker::Register {
                        id: *id,
                        f: Arc::clone(f),
                    },
                );
            }
        }
        for (id, program) in self.kernels.borrow().iter() {
            self.send_cmd(&Cmd::RegisterKernel {
                id: *id,
                program: program.clone(),
            });
        }
        let mut restored = Vec::with_capacity(ck.arrays.len());
        for (id, meta, data) in &ck.arrays {
            let slab = meta.slab();
            for w in 0..self.n_workers {
                let map = meta.axis_map(self.n_workers, w);
                let seg = data
                    .gather_indices(map.my_gids().iter().flat_map(|&g| g * slab..(g + 1) * slab));
                self.send_cmd_to(
                    w,
                    &Cmd::SetData {
                        id: *id,
                        meta: meta.clone(),
                        data: seg,
                    },
                );
            }
            self.record_meta(*id, meta.clone());
            self.lost.borrow_mut().remove(id);
            restored.push(*id);
        }
        // Everything else that was live lost its segments with the pool.
        let lost: Vec<u64> = {
            let metas = self.metas.borrow();
            let mut ids: Vec<u64> = metas
                .keys()
                .copied()
                .filter(|id| !restored.contains(id))
                .collect();
            ids.sort_unstable();
            ids
        };
        self.lost.borrow_mut().extend(lost.iter().copied());
        RecoveryReport {
            respawned: self.n_workers,
            restored,
            lost,
        }
    }

    /// Resize the worker pool to `n_workers` and replay the checkpoint onto
    /// it — the elastic-pool hook the serving plane uses to grow or shrink
    /// capacity between jobs. Taking `&mut self` guarantees no `DistArray`
    /// borrows (or pending replies) are live across the resize, so every
    /// surviving array must come back through `ck`; anything else is
    /// reported lost exactly as in [`Self::recover`]. Checkpoint replay
    /// re-slices each array with the *new* worker count, so any size works.
    pub fn resize(&mut self, n_workers: usize, ck: &OdinCheckpoint) -> RecoveryReport {
        assert!(n_workers > 0, "a pool needs at least one worker");
        self.n_workers = n_workers;
        self.config.n_workers = n_workers;
        // Re-dimension the per-worker books before recover() `.fill()`s
        // them; stale entries from the old size would misindex.
        *self.dead.borrow_mut() = vec![false; n_workers];
        {
            let mut eng = self.engine.borrow_mut();
            eng.issued = vec![0; n_workers];
            eng.arrived = vec![0; n_workers];
            eng.buffered.clear();
            eng.abandoned.clear();
        }
        *self.worker_done_seq.borrow_mut() = vec![0; n_workers];
        self.recover(ck)
    }
}

impl Drop for OdinContext {
    fn drop(&mut self) {
        // Best-effort shutdown; workers may already be gone in panic paths.
        let mut bytes = comm::encode_to_vec(&Cmd::Shutdown);
        for w in 0..self.n_workers {
            let payload = if w + 1 == self.n_workers {
                std::mem::take(&mut bytes)
            } else {
                bytes.clone()
            };
            self.worker_send(
                w,
                ToWorker::Bytes {
                    bytes: payload,
                    flow: 0,
                },
            );
        }
        if let Some(pool) = self.pool.borrow_mut().take() {
            let faulty = self.config.fault.is_active() || self.dead.borrow().iter().any(|&d| d);
            if faulty && self.config.stall_timeout.is_none() {
                // A killed worker's peers may be blocked forever in a
                // collective; without a bounded worker-side wait the only
                // hang-free teardown is to detach them.
                pool.abandon();
            } else {
                // Swallow worker panics (killed or crashed workers) —
                // teardown must not re-panic.
                let _ = pool.join_quiet();
            }
        }
    }
}

// ---- Worker side -----------------------------------------------------------

/// What a local-mode function sees on each worker: the worker
/// communicator (for direct worker↔worker communication), the segment
/// store, and the structured-table store (§III-I).
pub struct WorkerScope<'a> {
    /// The worker communicator.
    pub comm: &'a Comm,
    arrays: &'a mut HashMap<u64, (ArrayMeta, Buffer)>,
    tables: &'a mut HashMap<u64, crate::table::TableSeg>,
    reply: &'a Sender<(usize, ReplyMsg)>,
}

impl<'a> WorkerScope<'a> {
    /// This worker's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of workers.
    pub fn n_workers(&self) -> usize {
        self.comm.size()
    }

    /// Metadata of an array.
    pub fn meta(&self, id: u64) -> &ArrayMeta {
        &self.arrays.get(&id).expect("unknown array on worker").0
    }

    /// This worker's segment of an array.
    pub fn local(&self, id: u64) -> &Buffer {
        &self.arrays.get(&id).expect("unknown array on worker").1
    }

    /// Mutable segment access.
    pub fn local_mut(&mut self, id: u64) -> &mut Buffer {
        &mut self.arrays.get_mut(&id).expect("unknown array on worker").1
    }

    /// The [`dmap::DistMap`] of an array's distributed axis.
    pub fn axis_map(&self, id: u64) -> dmap::DistMap {
        let meta = self.meta(id);
        meta.axis_map(self.n_workers(), self.rank())
    }

    /// Insert (or replace) an array segment.
    pub fn insert(&mut self, id: u64, meta: ArrayMeta, data: Buffer) {
        debug_assert_eq!(
            data.len(),
            meta.local_len(self.n_workers(), self.rank()),
            "segment length must match the meta"
        );
        self.arrays.insert(id, (meta, data));
    }

    /// View a 1-D block-distributed f64 array as a [`DistVector`] — the
    /// ODIN↔Trilinos bridge (§III-E). Panics if not conformable with a
    /// block vector layout (redistribute first).
    pub fn as_dist_vector(&self, id: u64) -> DistVector<f64> {
        let meta = self.meta(id);
        assert_eq!(meta.ndim(), 1, "bridge requires a 1-D array");
        assert_eq!(meta.dist, Dist::Block, "bridge requires block distribution");
        assert_eq!(meta.dtype, DType::F64, "bridge requires f64");
        let map = self.axis_map(id);
        DistVector::from_local(map, self.local(id).as_f64().to_vec())
    }

    /// Store a [`DistVector`] back as the segment of array `id`.
    pub fn store_dist_vector(&mut self, id: u64, v: &DistVector<f64>) {
        let meta = ArrayMeta {
            shape: vec![v.n_global()],
            axis: 0,
            dist: Dist::Block,
            dtype: DType::F64,
        };
        self.insert(id, meta, Buffer::F64(v.local().to_vec()));
    }

    /// Send a reply payload to the master (used by reduction-style local
    /// functions; usually only worker 0 should reply). Best-effort: a
    /// master mid-teardown (its reply channel closed) is not an error the
    /// worker can act on, so the payload is silently discarded and the
    /// worker exits at its next command-channel receive.
    pub fn reply(&self, bytes: Vec<u8>) {
        let _ = self.reply.send((self.rank(), ReplyMsg::Bytes(bytes)));
    }

    /// This worker's segment of a distributed table.
    pub fn table(&self, id: u64) -> &crate::table::TableSeg {
        self.tables.get(&id).expect("unknown table on worker")
    }

    /// Mutable table segment access.
    pub fn table_mut(&mut self, id: u64) -> &mut crate::table::TableSeg {
        self.tables.get_mut(&id).expect("unknown table on worker")
    }

    /// Insert (or replace) a table segment.
    pub fn insert_table(&mut self, id: u64, seg: crate::table::TableSeg) {
        self.tables.insert(id, seg);
    }

    /// Drop a table segment.
    pub fn remove_table(&mut self, id: u64) {
        self.tables.remove(&id);
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Uniform [0,1) from (seed, global element index) — worker-count
/// invariant by construction.
pub(crate) fn seeded_uniform(seed: u64, gidx: u64) -> f64 {
    let bits = splitmix64(seed ^ splitmix64(gidx));
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

fn fill_buffer(meta: &ArrayMeta, fill: &Fill, n_workers: usize, rank: usize) -> Buffer {
    let map = meta.axis_map(n_workers, rank);
    let slab = meta.slab();
    let n_local = map.my_count() * slab;
    match fill {
        Fill::Zeros => Buffer::zeros(meta.dtype, n_local),
        Fill::Full(v) => match meta.dtype {
            DType::F64 => Buffer::F64(vec![*v; n_local]),
            DType::I64 => Buffer::I64(vec![*v as i64; n_local]),
            DType::Bool => Buffer::Bool(vec![*v != 0.0; n_local]),
        },
        Fill::Arange { start, step } => {
            let vals = local_global_indices(&map, slab).map(|g| start + step * g as f64);
            match meta.dtype {
                DType::F64 => Buffer::F64(vals.collect()),
                DType::I64 => Buffer::I64(vals.map(|v| v as i64).collect()),
                DType::Bool => Buffer::Bool(vals.map(|v| v != 0.0).collect()),
            }
        }
        Fill::Linspace { start, stop } => {
            let n = meta.n_global();
            let denom = if n > 1 { (n - 1) as f64 } else { 1.0 };
            let step = (stop - start) / denom;
            let s = *start;
            Buffer::F64(
                local_global_indices(&map, slab)
                    .map(|g| s + step * g as f64)
                    .collect(),
            )
        }
        Fill::Random { seed } => {
            let s = *seed;
            Buffer::F64(
                local_global_indices(&map, slab)
                    .map(|g| seeded_uniform(s, g as u64))
                    .collect(),
            )
        }
    }
}

/// Iterator of global flat indices for this worker's segment, in local
/// storage order (rows along the distributed axis are contiguous).
fn local_global_indices(map: &dmap::DistMap, slab: usize) -> impl Iterator<Item = usize> + '_ {
    (0..map.my_count()).flat_map(move |l| {
        let g = map.local_to_global(l);
        (0..slab).map(move |k| g * slab + k)
    })
}

/// Scratch buffers one worker reuses across commands, so steady-state
/// command execution stops reallocating them per command.
#[derive(Default)]
struct WorkerScratch {
    /// Recycled `f64` rows for kernel launches.
    f64_rows: Vec<Vec<f64>>,
    /// Recycled `i64` rows for kernel launches.
    i64_rows: Vec<Vec<i64>>,
}

fn worker_main(comm: &mut Comm, rx: Receiver<ToWorker>, reply: Sender<(usize, ReplyMsg)>) {
    let mut arrays: HashMap<u64, (ArrayMeta, Buffer)> = HashMap::new();
    let mut tables: HashMap<u64, crate::table::TableSeg> = HashMap::new();
    let mut fns: HashMap<u64, LocalFn> = HashMap::new();
    let mut kernels: HashMap<u64, seamless::bytecode::Program> = HashMap::new();
    let mut scratch = WorkerScratch::default();
    'outer: loop {
        // Idle-wait with a periodic reliability pump: a worker parked
        // here can still owe retransmits for the final sends of its last
        // collective (a peer may be blocked on one of them), and nothing
        // else on this rank would ever resend. See `Comm::pump`.
        let msg = loop {
            match rx.recv_timeout(std::time::Duration::from_millis(10)) {
                Ok(m) => break m,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => comm.pump(),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break 'outer,
            }
        };
        match msg {
            ToWorker::Register { id, f } => {
                fns.insert(id, f);
            }
            ToWorker::Bytes { bytes, flow } => {
                // Execution span consuming the dispatch's control flow:
                // cross-clock-domain, so it annotates the trace (arrow
                // from the master) without entering the critical path.
                let timer = if flow != 0 && obs::enabled() {
                    Some(obs::span::span_start(comm.virtual_time()))
                } else {
                    None
                };
                let n_bytes = bytes.len();
                let mut cur = Cursor::new(&bytes);
                while cur.remaining() > 0 {
                    let cmd = Cmd::decode(&mut cur).expect("bad command encoding");
                    // Fault-injection hook: a killed worker stops executing
                    // and exits, dropping its channels so the master's
                    // liveness probe discovers the death.
                    if comm.fault_tick().is_err() {
                        break 'outer;
                    }
                    if !exec_cmd(
                        comm,
                        &reply,
                        &mut arrays,
                        &mut tables,
                        &fns,
                        &mut kernels,
                        &mut scratch,
                        cmd,
                    ) {
                        break 'outer;
                    }
                }
                if let Some(t) = timer {
                    t.finish_meta(
                        "odin",
                        "exec",
                        comm.virtual_time(),
                        &[("cmd_bytes", n_bytes as f64)],
                        obs::span::SpanMeta {
                            kind: obs::span::SpanKind::Other,
                            flow_out: 0,
                            flow_in: flow,
                        },
                    );
                }
            }
        }
    }
}

/// Execute one command; returns false on shutdown.
#[allow(clippy::too_many_arguments)]
fn exec_cmd(
    comm: &Comm,
    reply: &Sender<(usize, ReplyMsg)>,
    arrays: &mut HashMap<u64, (ArrayMeta, Buffer)>,
    tables: &mut HashMap<u64, crate::table::TableSeg>,
    fns: &HashMap<u64, LocalFn>,
    kernels: &mut HashMap<u64, seamless::bytecode::Program>,
    scratch: &mut WorkerScratch,
    cmd: Cmd,
) -> bool {
    let p = comm.size();
    let rank = comm.rank();
    match cmd {
        Cmd::Create { id, meta, fill } => {
            let data = fill_buffer(&meta, &fill, p, rank);
            comm.advance_compute(data.len() as f64);
            arrays.insert(id, (meta, data));
        }
        Cmd::SetData { id, meta, data } => {
            assert_eq!(data.len(), meta.local_len(p, rank), "bad segment length");
            arrays.insert(id, (meta, data));
        }
        Cmd::AsType { out, a, dtype } => {
            let (meta, buf) = &arrays[&a];
            let result = buf.astype(dtype);
            let out_meta = ArrayMeta {
                dtype,
                ..meta.clone()
            };
            arrays.insert(out, (out_meta, result));
        }
        Cmd::Redistribute { out, a, dist, axis } => {
            assert_eq!(axis, 0, "arrays are distributed along axis 0");
            let (meta, buf) = &arrays[&a];
            let (out_meta, out_buf) = redistribute_worker(comm, meta, buf, dist);
            arrays.insert(out, (out_meta, out_buf));
        }
        Cmd::Slice { out, a, specs } => {
            let (meta, buf) = &arrays[&a];
            let (out_meta, out_buf) = slice_worker(comm, meta, buf, &specs);
            arrays.insert(out, (out_meta, out_buf));
        }
        Cmd::Reduce { a, kind, axis, out } => {
            exec_reduce(comm, reply, arrays, a, kind, axis, out);
        }
        Cmd::Fetch { a } => {
            let (meta, buf) = &arrays[&a];
            let map = meta.axis_map(p, rank);
            let gids = map.my_gids();
            // Segments at or above the zero-copy threshold move as typed
            // regions (the Buffer clone is unavoidable here — the worker
            // keeps its segment — but the encode/decode round-trip is
            // not). Small segments take the classic wire path.
            let msg_size = gids.wire_size() + buf.wire_size();
            let msg = if msg_size >= comm.zerocopy_threshold() {
                ReplyMsg::Segment {
                    gids,
                    data: buf.clone(),
                }
            } else {
                // Field-by-field tuple encoding, wire-compatible with
                // `encode_to_vec(&(gids, buffer))` but without cloning
                // the whole segment first.
                let mut payload = Vec::new();
                gids.encode(&mut payload);
                buf.encode(&mut payload);
                ReplyMsg::Bytes(payload)
            };
            let _ = reply.send((rank, msg));
        }
        Cmd::CallLocal {
            fn_id,
            arrays: arg_arrays,
            scalars,
        } => {
            let f = Arc::clone(fns.get(&fn_id).expect("unknown local function"));
            let mut scope = WorkerScope {
                comm,
                arrays,
                tables,
                reply,
            };
            f(&mut scope, &arg_arrays, &scalars);
        }
        Cmd::Free { id } => {
            arrays.remove(&id);
        }
        Cmd::Ping => {
            let _ = reply.send((rank, ReplyMsg::Bytes(Vec::new())));
        }
        Cmd::Shutdown => return false,
        Cmd::Select { out, cond, a, b } => {
            let (mc, bc) = &arrays[&cond];
            let (ma, ba) = &arrays[&a];
            let (mb, bb) = &arrays[&b];
            assert!(
                mc.conformable(ma) && ma.conformable(mb),
                "select operands must be conformable"
            );
            let n = bc.len();
            let out_dtype = ba.dtype().promote(bb.dtype());
            let values = Buffer::F64(
                (0..n)
                    .map(|i| {
                        if bc.get_f64(i) != 0.0 {
                            ba.get_f64(i)
                        } else {
                            bb.get_f64(i)
                        }
                    })
                    .collect(),
            )
            .astype(out_dtype);
            comm.advance_compute(n as f64);
            let out_meta = ArrayMeta {
                dtype: out_dtype,
                ..ma.clone()
            };
            arrays.insert(out, (out_meta, values));
        }
        Cmd::CumSum { out, a } => {
            let (meta, buf) = &arrays[&a];
            assert_eq!(meta.ndim(), 1, "cumsum supports 1-D arrays");
            assert_eq!(
                meta.dist,
                Dist::Block,
                "cumsum needs contiguous segments (master redistributes first)"
            );
            // local prefix, then shift by the exscan of local totals —
            // the classic distributed scan.
            let n = buf.len();
            let mut local = Vec::with_capacity(n);
            let mut acc = 0.0f64;
            for i in 0..n {
                acc += buf.get_f64(i);
                local.push(acc);
            }
            comm.advance_compute(n as f64);
            let offset = comm.exscan(&acc, 0.0, |x: &f64, y: &f64| x + y);
            for v in &mut local {
                *v += offset;
            }
            let out_dtype = match meta.dtype {
                DType::Bool => DType::I64,
                d => d,
            };
            let out_meta = ArrayMeta {
                dtype: out_dtype,
                ..meta.clone()
            };
            let data = Buffer::F64(local).astype(out_dtype);
            arrays.insert(out, (out_meta, data));
        }
        Cmd::ArgReduce { a, is_max } => {
            let (meta, buf) = &arrays[&a];
            let map = meta.axis_map(p, rank);
            let slab = meta.slab();
            let mut best: Option<(f64, usize)> = None;
            for i in 0..buf.len() {
                let v = buf.get_f64(i);
                let better = match best {
                    None => true,
                    Some((bv, _)) => {
                        if is_max {
                            v > bv
                        } else {
                            v < bv
                        }
                    }
                };
                if better {
                    let gid = map.local_to_global(i / slab.max(1)) * slab.max(1) + i % slab.max(1);
                    best = Some((v, gid));
                }
            }
            comm.advance_compute(buf.len() as f64);
            // combine keeping the smallest global index on ties
            let sentinel = if is_max {
                (f64::NEG_INFINITY, usize::MAX)
            } else {
                (f64::INFINITY, usize::MAX)
            };
            let mine = best.unwrap_or(sentinel);
            let winner = comm.allreduce(&mine, |x: &(f64, usize), y: &(f64, usize)| {
                let x_wins = if is_max {
                    x.0 > y.0 || (x.0 == y.0 && x.1 <= y.1)
                } else {
                    x.0 < y.0 || (x.0 == y.0 && x.1 <= y.1)
                };
                if x_wins {
                    *x
                } else {
                    *y
                }
            });
            if rank == 0 {
                let _ = reply.send((rank, ReplyMsg::Bytes(comm::encode_to_vec(&winner))));
            }
        }
        Cmd::Concat { out, a, b } => {
            let (ma, _) = &arrays[&a];
            let (mb, _) = &arrays[&b];
            assert_eq!(ma.ndim(), 1, "concat supports 1-D arrays");
            assert_eq!(mb.ndim(), 1, "concat supports 1-D arrays");
            let n1 = ma.shape[0];
            let n2 = mb.shape[0];
            let out_dtype = arrays[&a].1.dtype().promote(arrays[&b].1.dtype());
            let out_meta = ArrayMeta {
                shape: vec![n1 + n2],
                axis: 0,
                dist: Dist::Block,
                dtype: out_dtype,
            };
            let out_map = out_meta.axis_map(p, rank);
            // route each local element of a and b to its owner in out
            let mut per_peer_idx: Vec<Vec<usize>> = (0..p).map(|_| Vec::new()).collect();
            let mut per_peer_val: Vec<Vec<f64>> = (0..p).map(|_| Vec::new()).collect();
            for (src, base) in [(a, 0usize), (b, n1)] {
                let (m, buf) = &arrays[&src];
                let map = m.axis_map(p, rank);
                for l in 0..buf.len() {
                    let g = map.local_to_global(l) + base;
                    let owner = out_map.owner_of(g).expect("structured map");
                    per_peer_idx[owner].push(g);
                    per_peer_val[owner].push(buf.get_f64(l));
                }
            }
            let outgoing: Vec<Vec<(Vec<usize>, Vec<f64>)>> = per_peer_idx
                .into_iter()
                .zip(per_peer_val)
                .map(|(i, v)| {
                    if i.is_empty() {
                        Vec::new()
                    } else {
                        vec![(i, v)]
                    }
                })
                .collect();
            let incoming = comm.alltoallv(outgoing);
            let mut values = vec![0.0f64; out_map.my_count()];
            for (idx, vals) in incoming.into_iter().flatten() {
                for (g, v) in idx.into_iter().zip(vals) {
                    values[out_map.global_to_local(g).expect("routed wrong")] = v;
                }
            }
            let data = Buffer::F64(values).astype(out_dtype);
            arrays.insert(out, (out_meta, data));
        }
        Cmd::MatMul { out, a, b } => {
            let (ma, ba) = &arrays[&a];
            let (mb, bb) = &arrays[&b];
            assert_eq!(ma.ndim(), 2, "matmul takes 2-D arrays");
            assert_eq!(mb.ndim(), 2, "matmul takes 2-D arrays");
            let (m, ka) = (ma.shape[0], ma.shape[1]);
            let (kb, ncols) = (mb.shape[0], mb.shape[1]);
            assert_eq!(ka, kb, "matmul inner dimensions must agree");
            // allgather B: each worker contributes (row gids, flat rows)
            let b_map = mb.axis_map(p, rank);
            let my_b: Vec<f64> = (0..bb.len()).map(|i| bb.get_f64(i)).collect();
            let pieces: Vec<(Vec<usize>, Vec<f64>)> = comm.allgather(&(b_map.my_gids(), my_b));
            let mut bfull = vec![0.0f64; kb * ncols];
            for (gids, vals) in pieces {
                for (l, g) in gids.into_iter().enumerate() {
                    bfull[g * ncols..(g + 1) * ncols]
                        .copy_from_slice(&vals[l * ncols..(l + 1) * ncols]);
                }
            }
            // local GEMM over my block rows of A (ikj order)
            let a_map = ma.axis_map(p, rank);
            let rows = a_map.my_count();
            let mut c = vec![0.0f64; rows * ncols];
            for i in 0..rows {
                for kk in 0..ka {
                    let aik = ba.get_f64(i * ka + kk);
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &bfull[kk * ncols..(kk + 1) * ncols];
                    let crow = &mut c[i * ncols..(i + 1) * ncols];
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += aik * bv;
                    }
                }
            }
            comm.advance_compute(2.0 * (rows * ka * ncols) as f64);
            let out_meta = ArrayMeta {
                shape: vec![m, ncols],
                axis: 0,
                dist: ma.dist,
                dtype: DType::F64,
            };
            assert_eq!(
                out_meta.local_len(p, rank),
                c.len(),
                "matmul requires A's row distribution to be block-compatible"
            );
            arrays.insert(out, (out_meta, Buffer::F64(c)));
        }
        Cmd::RegisterKernel { id, program } => {
            kernels.insert(id, program);
        }
        Cmd::EvalKernelMulti {
            kernel,
            inputs,
            scalars,
            outs,
            dtype,
            native,
        } => {
            let launch = Launch {
                program: kernels.get(&kernel).expect("unknown kernel"),
                inputs: &inputs,
                scalars: &scalars,
                outs: &outs,
                native,
            };
            match dtype {
                DType::F64 => exec_kernel::<f64>(comm, reply, arrays, scratch, launch),
                DType::I64 | DType::Bool => {
                    exec_kernel::<i64>(comm, reply, arrays, scratch, launch)
                }
            }
        }
    }
    true
}

/// Row element type of a kernel launch (its compute dtype): how a
/// segment is borrowed or converted into rows, where recycled rows live,
/// and how a harvested row becomes a segment.
trait Elem: seamless::vm::Lane {
    /// The segment itself, when its storage already is `Self`.
    fn borrow(b: &Buffer) -> Option<&[Self]>;
    /// Element `i` of a segment, converted like `astype`.
    fn get(b: &Buffer, i: usize) -> Self;
    /// This type's recycled rows.
    fn pool(s: &mut WorkerScratch) -> &mut Vec<Vec<Self>>;
    /// A harvested row as a segment of `dtype`.
    fn into_buffer(row: Vec<Self>, dtype: DType) -> Buffer;
}

impl Elem for f64 {
    fn borrow(b: &Buffer) -> Option<&[f64]> {
        match b {
            Buffer::F64(v) => Some(v),
            _ => None,
        }
    }
    fn get(b: &Buffer, i: usize) -> f64 {
        b.get_f64(i)
    }
    fn pool(s: &mut WorkerScratch) -> &mut Vec<Vec<f64>> {
        &mut s.f64_rows
    }
    fn into_buffer(row: Vec<f64>, dtype: DType) -> Buffer {
        cast(Buffer::F64(row), dtype)
    }
}

impl Elem for i64 {
    fn borrow(b: &Buffer) -> Option<&[i64]> {
        match b {
            Buffer::I64(v) => Some(v),
            _ => None,
        }
    }
    fn get(b: &Buffer, i: usize) -> i64 {
        b.get_i64(i)
    }
    fn pool(s: &mut WorkerScratch) -> &mut Vec<Vec<i64>> {
        &mut s.i64_rows
    }
    fn into_buffer(row: Vec<i64>, dtype: DType) -> Buffer {
        cast(Buffer::I64(row), dtype)
    }
}

/// `astype` that moves a buffer already of the target dtype.
fn cast(b: Buffer, dtype: DType) -> Buffer {
    if b.dtype() == dtype {
        b
    } else {
        b.astype(dtype)
    }
}

/// One decoded [`Cmd::EvalKernelMulti`], its kernel resolved.
struct Launch<'a> {
    program: &'a seamless::bytecode::Program,
    inputs: &'a [u64],
    scalars: &'a [f64],
    outs: &'a [KernelOut],
    native: bool,
}

/// Run a registered kernel over this worker's segment and harvest its
/// outputs — the one elementwise executor, monomorphized per compute
/// dtype `T`. Inputs borrow in place when already `T` and convert into
/// recycled rows otherwise; scalar parameters become constant rows.
///
/// With `native` set, the probed C monomorphization (DESIGN §15) runs the
/// whole segment in one call; otherwise the VM runs it in
/// [`KERNEL_CHUNK`]-lane chunks through recycled rows. Each
/// [`KernelOut::Array`] collects its row and casts once at the end; each
/// [`KernelOut::Reduce`] folds its row in element order, then one
/// allreduce per reduction (in `outs` order) and a rank-0 reply with the
/// totals — the same fold and tail as `exec_reduce`, so a fused reduction
/// is bitwise-identical to materialize-then-reduce. The probe gate makes
/// the tiers bitwise-interchangeable, and the modeled compute advance is
/// tier-independent, so chaos/critical-path results do not depend on
/// which tier ran.
fn exec_kernel<T: Elem>(
    comm: &Comm,
    reply: &Sender<(usize, ReplyMsg)>,
    arrays: &mut HashMap<u64, (ArrayMeta, Buffer)>,
    scratch: &mut WorkerScratch,
    launch: Launch<'_>,
) {
    let Launch {
        program,
        inputs,
        scalars,
        outs,
        native,
    } = launch;
    let n_instrs = program.funcs.first().map_or(0, |f| f.instrs.len());
    // The first input defines the outputs' geometry.
    let (t_meta, first) = &arrays[&inputs[0]];
    let (t_meta, n) = (t_meta.clone(), first.len());
    // Kernel event span: covers the body plus its modeled compute advance,
    // closing *before* the collective reduce tail so no comm spans nest
    // inside it (the critical-path walk treats Kernel spans as atomic
    // clock advances).
    let kernel_timer = if obs::enabled() {
        Some(obs::span::span_start(comm.virtual_time()))
    } else {
        None
    };
    let out_regs: Vec<_> = outs.iter().map(KernelOut::reg).collect();
    // The cache was warmed master-side at build, so this lookup never
    // compiles on a worker; a cold cache (e.g. a replayed command after
    // recover) compiles once and probes before use.
    let native_fn = if native {
        seamless::codegen::native::<T>(program, &out_regs)
    } else {
        None
    };
    let vm = seamless::vm::Vm::new(program);
    let chunk = if native_fn.is_some() {
        n
    } else {
        KERNEL_CHUNK.min(n)
    };
    let whole = chunk == n;
    let pool = T::pool(scratch);
    let mut row = |len: usize, fill: T| {
        let mut r = pool.pop().unwrap_or_default();
        r.clear();
        r.resize(len, fill);
        r
    };
    let mut staged: Vec<Option<Vec<T>>> = inputs
        .iter()
        .map(|id| {
            let (m, b) = &arrays[id];
            debug_assert!(m.conformable(&t_meta), "kernel input not conformable");
            T::borrow(b).is_none().then(|| row(0, T::default()))
        })
        .collect();
    let scalar_rows: Vec<Vec<T>> = scalars
        .iter()
        .map(|&v| row(chunk, T::from_f64(v)))
        .collect();
    let mut out_rows: Vec<Vec<T>> = outs.iter().map(|_| row(chunk, T::default())).collect();
    let mut values: Vec<Vec<T>> = outs
        .iter()
        .map(|o| match o {
            KernelOut::Array { .. } if !whole => Vec::with_capacity(n),
            _ => Vec::new(),
        })
        .collect();
    let mut partials: Vec<f64> = outs
        .iter()
        .map(|o| match o {
            KernelOut::Reduce { kind, .. } => reduce_identity(*kind),
            KernelOut::Array { .. } => 0.0,
        })
        .collect();
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        let len = end - start;
        for (buf, id) in staged.iter_mut().zip(inputs) {
            if let Some(buf) = buf {
                let b = &arrays[id].1;
                buf.clear();
                buf.extend((start..end).map(|i| T::get(b, i)));
            }
        }
        let mut refs: Vec<&[T]> = inputs
            .iter()
            .zip(&staged)
            .map(|(id, s)| match s {
                Some(buf) => &buf[..],
                None => &T::borrow(&arrays[id].1).expect("unstaged inputs borrow")[start..end],
            })
            .collect();
        refs.extend(scalar_rows.iter().map(|r| &r[..len]));
        let mut rows: Vec<&mut [T]> = out_rows.iter_mut().map(|r| &mut r[..len]).collect();
        match native_fn {
            Some(nf) => nf.run(&refs, &mut rows, len),
            None => vm
                .run_chunk(0, &refs, &out_regs, &mut rows)
                .expect("kernel failed on a worker segment"),
        }
        for (slot, o) in outs.iter().enumerate() {
            match o {
                // one call covered the whole segment: keep its row as is
                KernelOut::Array { .. } if whole => {
                    std::mem::swap(&mut values[slot], &mut out_rows[slot])
                }
                KernelOut::Array { .. } => values[slot].extend_from_slice(&out_rows[slot][..len]),
                KernelOut::Reduce { kind, .. } => {
                    let p = &mut partials[slot];
                    *p = fold(*kind, *p, out_rows[slot][..len].iter().map(|v| v.to_f64()));
                }
            }
        }
        start = end;
    }
    let pool = T::pool(scratch);
    pool.extend(staged.into_iter().flatten());
    pool.extend(scalar_rows);
    pool.extend(out_rows);
    if native_fn.is_some() && obs::enabled() {
        obs::global().counter("odin.kernel.native_invokes").add(1);
    }
    comm.advance_compute((n * n_instrs.max(1)) as f64);
    if let Some(t) = kernel_timer {
        t.finish_meta(
            "odin",
            "kernel",
            comm.virtual_time(),
            &[("n", n as f64), ("instrs", n_instrs as f64)],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Kernel,
                flow_out: 0,
                flow_in: 0,
            },
        );
    }
    let mut reductions = Vec::new();
    for ((o, row), partial) in outs.iter().zip(values).zip(partials) {
        match *o {
            KernelOut::Array { id, dtype, .. } => {
                let out_meta = ArrayMeta {
                    dtype,
                    ..t_meta.clone()
                };
                arrays.insert(id, (out_meta, T::into_buffer(row, dtype)));
            }
            KernelOut::Reduce { kind, .. } => reductions.push((kind, partial)),
        }
    }
    if !reductions.is_empty() {
        reply_from_root(comm, reply, &allreduce_partials(comm, &reductions));
    }
}

/// Lanes per VM call of a kernel launch: small enough that the register
/// rows of a fused body stay cache-resident.
const KERNEL_CHUNK: usize = 4096;

/// Fold `values` into `acc` in element order — the one local fold every
/// whole-array reduction shares.
fn fold(kind: ReduceKind, acc: f64, values: impl Iterator<Item = f64>) -> f64 {
    values.fold(acc, |a, v| reduce_combine(kind, a, reduce_element(kind, v)))
}

/// Combine each rank's `(kind, partial)` across the pool, one allreduce
/// per partial, in order. A collective: every rank runs it, even with an
/// empty segment.
fn allreduce_partials(comm: &Comm, partials: &[(ReduceKind, f64)]) -> Vec<f64> {
    partials
        .iter()
        .map(|&(kind, p)| comm.allreduce(&p, |x: &f64, y: &f64| reduce_combine(kind, *x, *y)))
        .collect()
}

/// Rank 0 answers the master (commands whose protocol has one replier).
fn reply_from_root<W: Wire>(comm: &Comm, reply: &Sender<(usize, ReplyMsg)>, value: &W) {
    if comm.rank() == 0 {
        let _ = reply.send((0, ReplyMsg::Bytes(comm::encode_to_vec(value))));
    }
}

fn reduce_identity(kind: ReduceKind) -> f64 {
    match kind {
        ReduceKind::Sum | ReduceKind::CountNonzero => 0.0,
        ReduceKind::Prod => 1.0,
        ReduceKind::Min => f64::INFINITY,
        ReduceKind::Max => f64::NEG_INFINITY,
    }
}

fn reduce_combine(kind: ReduceKind, a: f64, b: f64) -> f64 {
    match kind {
        ReduceKind::Sum | ReduceKind::CountNonzero => a + b,
        ReduceKind::Prod => a * b,
        ReduceKind::Min => a.min(b),
        ReduceKind::Max => a.max(b),
    }
}

fn reduce_element(kind: ReduceKind, x: f64) -> f64 {
    match kind {
        ReduceKind::CountNonzero => f64::from(u8::from(x != 0.0)),
        _ => x,
    }
}

fn exec_reduce(
    comm: &Comm,
    reply: &Sender<(usize, ReplyMsg)>,
    arrays: &mut HashMap<u64, (ArrayMeta, Buffer)>,
    a: u64,
    kind: ReduceKind,
    axis: Option<usize>,
    out: u64,
) {
    let p = comm.size();
    let rank = comm.rank();
    let (meta, buf) = &arrays[&a];
    match axis {
        None => {
            let partial = fold(
                kind,
                reduce_identity(kind),
                (0..buf.len()).map(|i| buf.get_f64(i)),
            );
            comm.advance_compute(buf.len() as f64);
            let total = allreduce_partials(comm, &[(kind, partial)]);
            reply_from_root(comm, reply, &total[0]);
        }
        Some(0) => {
            assert!(meta.ndim() >= 2, "axis-0 reduce needs ndim ≥ 2");
            let slab = meta.slab();
            let map = meta.axis_map(p, rank);
            let mut partial = vec![reduce_identity(kind); slab];
            for l in 0..map.my_count() {
                for (k, pk) in partial.iter_mut().enumerate() {
                    let x = reduce_element(kind, buf.get_f64(l * slab + k));
                    *pk = reduce_combine(kind, *pk, x);
                }
            }
            comm.advance_compute(buf.len() as f64);
            let full = comm.allreduce(&partial, |x: &Vec<f64>, y: &Vec<f64>| {
                x.iter()
                    .zip(y.iter())
                    .map(|(u, v)| reduce_combine(kind, *u, *v))
                    .collect()
            });
            // Output: shape without axis 0, block-distributed along the
            // (new) axis 0. Each worker keeps its block of the slab.
            let out_shape: Vec<usize> = meta.shape[1..].to_vec();
            let out_meta = ArrayMeta {
                shape: out_shape,
                axis: 0,
                dist: Dist::Block,
                dtype: reduce_output_dtype(kind, meta.dtype),
            };
            let out_map = out_meta.axis_map(p, rank);
            let out_slab = out_meta.slab();
            let mut mine = Vec::with_capacity(out_map.my_count() * out_slab);
            for l in 0..out_map.my_count() {
                let g = out_map.local_to_global(l);
                for k in 0..out_slab {
                    mine.push(full[g * out_slab + k]);
                }
            }
            let data = Buffer::F64(mine).astype(out_meta.dtype);
            arrays.insert(out, (out_meta, data));
        }
        Some(ax) => {
            assert!(ax < meta.ndim(), "reduce axis out of range");
            let map = meta.axis_map(p, rank);
            let dims = &meta.shape[1..];
            // strides within the slab
            let mut strides = vec![1usize; dims.len()];
            for i in (0..dims.len().saturating_sub(1)).rev() {
                strides[i] = strides[i + 1] * dims[i + 1];
            }
            let red_d = ax - 1; // index into slab dims
            let out_dims: Vec<usize> = dims
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != red_d)
                .map(|(_, &d)| d)
                .collect();
            let out_slab: usize = out_dims.iter().product();
            // row-major strides of the reduced (output) slab
            let mut out_strides = vec![1usize; out_dims.len()];
            for i in (0..out_dims.len().saturating_sub(1)).rev() {
                out_strides[i] = out_strides[i + 1] * out_dims[i + 1];
            }
            // source-dim index of each output dim
            let src_dims: Vec<usize> = (0..dims.len()).filter(|&d| d != red_d).collect();
            // base offset (reduced dim = 0) of each output slab position
            let base_offsets: Vec<usize> = (0..out_slab)
                .map(|o| {
                    src_dims
                        .iter()
                        .enumerate()
                        .map(|(i, &sd)| ((o / out_strides[i]) % out_dims[i]) * strides[sd])
                        .sum()
                })
                .collect();
            let slab = meta.slab();
            let red_len = dims[red_d];
            let red_stride = strides[red_d];
            let mut values = Vec::with_capacity(map.my_count() * out_slab);
            for l in 0..map.my_count() {
                let row = l * slab;
                for &base in base_offsets.iter().take(out_slab) {
                    let mut acc = reduce_identity(kind);
                    for r in 0..red_len {
                        let x = reduce_element(kind, buf.get_f64(row + base + r * red_stride));
                        acc = reduce_combine(kind, acc, x);
                    }
                    values.push(acc);
                }
            }
            comm.advance_compute(buf.len() as f64);
            let mut out_shape = vec![meta.shape[0]];
            out_shape.extend(out_dims);
            let out_meta = ArrayMeta {
                shape: out_shape,
                axis: 0,
                dist: meta.dist,
                dtype: reduce_output_dtype(kind, meta.dtype),
            };
            let data = Buffer::F64(values).astype(out_meta.dtype);
            arrays.insert(out, (out_meta, data));
        }
    }
}

fn reduce_output_dtype(kind: ReduceKind, input: DType) -> DType {
    match kind {
        ReduceKind::CountNonzero => DType::I64,
        _ => match input {
            DType::Bool => DType::I64,
            d => d,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_uniform_is_deterministic_and_in_range() {
        for g in 0..1000u64 {
            let v = seeded_uniform(42, g);
            assert!((0.0..1.0).contains(&v));
            assert_eq!(v, seeded_uniform(42, g));
        }
        // different seeds decorrelate
        assert_ne!(seeded_uniform(1, 0), seeded_uniform(2, 0));
    }

    #[test]
    fn context_starts_and_stops() {
        let ctx = OdinContext::with_workers(3);
        ctx.barrier();
        assert_eq!(ctx.n_workers(), 3);
        drop(ctx); // clean shutdown must not hang
    }

    #[test]
    fn batching_reduces_channel_sends() {
        let ctx = OdinContext::with_workers(2);
        ctx.reset_stats();
        ctx.begin_batch();
        for _ in 0..10 {
            ctx.send_cmd(&Cmd::Ping);
        }
        ctx.flush_batch();
        let st = ctx.stats();
        assert_eq!(st.ctrl_msgs, 20); // 10 commands × 2 workers
        assert_eq!(st.channel_sends, 2); // but only one physical send each
                                         // drain the 20 ping replies (they interleave across workers)
        ctx.drain_replies(20);
    }

    #[test]
    fn pipelined_dispatch_overlaps_independent_commands() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.full(&[10], 2.0, crate::protocol::Dist::Block);
        let y = ctx.linspace(1.0, 10.0, 10);
        // dispatch two reductions without waiting for either
        let px = x.sum_async();
        let py = y.sum_async();
        assert!(
            px.seq() < py.seq(),
            "independent commands get distinct seqs"
        );
        assert_eq!(ctx.outstanding_replies(), 2, "both replies in flight");
        // claim out of dispatch order: the engine buffers the early reply
        assert!((py.wait() - 55.0).abs() < 1e-9);
        assert!((px.wait() - 20.0).abs() < 1e-9);
        assert_eq!(ctx.outstanding_replies(), 0);
    }

    #[test]
    fn pending_ready_polls_without_blocking() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.ones(&[9], crate::buffer::DType::F64);
        let mut p = x.sum_async();
        while !p.ready() {
            std::thread::yield_now();
        }
        assert!((p.wait() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn reduction_inside_open_batch_flushes_instead_of_deadlocking() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[8], crate::buffer::DType::F64);
        ctx.begin_batch();
        // sum() buffers Cmd::Reduce into the batch; wait() must flush it
        assert!((x.sum() - 8.0).abs() < 1e-12);
        // the batch was consumed: opening a fresh one must not panic
        ctx.begin_batch();
        ctx.flush_batch();
    }

    #[test]
    fn barrier_flushes_open_batch() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[6], crate::buffer::DType::F64);
        ctx.begin_batch();
        let y = &x + 1.0;
        ctx.barrier(); // must flush the buffered Binary command first
        assert_eq!(y.to_vec(), vec![2.0; 6]);
    }

    #[test]
    fn data_command_flushes_open_batch_preserving_order() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[4], crate::buffer::DType::F64);
        ctx.begin_batch();
        let doubled = &x * 2.0; // batched
        let v = ctx.from_vec(&[9.0, 9.0], crate::protocol::Dist::Block); // data cmd
        ctx.flush_open_batch(); // already flushed by from_vec; must be a no-op path
        assert_eq!(doubled.to_vec(), vec![2.0; 4]);
        assert_eq!(v.to_vec(), vec![9.0, 9.0]);
    }

    #[test]
    fn dropped_pending_reply_is_discarded_not_misdelivered() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.full(&[4], 3.0, crate::protocol::Dist::Block);
        let y = ctx.full(&[4], 5.0, crate::protocol::Dist::Block);
        let abandoned = x.sum_async();
        drop(abandoned);
        // the abandoned reply (12.0) must not be delivered to this wait
        assert!((y.sum() - 20.0).abs() < 1e-12);
        ctx.barrier();
        assert_eq!(ctx.outstanding_replies(), 0);
    }

    #[test]
    fn array_sequence_tracking_clears_after_barrier() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.ones(&[6], crate::buffer::DType::F64);
        let y = &x + 1.0; // in flight: no reply claimed yet
        assert!(ctx.array_in_flight(y.id()));
        assert!(ctx.dispatch_seq() > ctx.completed_seq());
        ctx.barrier(); // proves everything up to the Ping executed
        assert!(!ctx.array_in_flight(y.id()));
        assert_eq!(ctx.dispatch_seq(), ctx.completed_seq());
    }

    fn chaos_config(n_workers: usize, kill_rank: usize, kill_after_ops: u64) -> OdinConfig {
        OdinConfig {
            n_workers,
            fault: comm::FaultPlan {
                kill_rank: Some(kill_rank),
                kill_after_ops,
                ..comm::FaultPlan::none()
            },
            stall_timeout: Some(Duration::from_secs(10)),
            reply_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        }
    }

    #[test]
    fn killed_worker_surfaces_typed_error_in_bounded_time() {
        // Worker 1 dies at its second command (the Ping below), after
        // replying to nothing — the master must get a typed error, fast.
        let ctx = OdinContext::new(chaos_config(3, 1, 2));
        let _x = ctx.zeros(&[6], crate::buffer::DType::F64); // command 1
        let t0 = Instant::now();
        let err = ctx.try_barrier().unwrap_err(); // command 2: kills worker 1
        match err {
            OdinError::WorkerDead { worker, .. } => assert_eq!(worker, 1),
            other => panic!("expected WorkerDead, got {other}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "death detection must be bounded"
        );
        // the heartbeat agrees, without issuing new replies
        assert!(ctx.health_check().is_err());
        assert_eq!(ctx.dead_workers(), vec![1]);
    }

    #[test]
    fn recover_respawns_pool_and_replays_checkpointed_segments() {
        let ctx = OdinContext::new(chaos_config(2, 0, 4));
        let x = ctx.linspace(1.0, 8.0, 8); // command 1
        let orphan = ctx.ones(&[4], crate::buffer::DType::F64); // command 2
        let ck = ctx.checkpoint(&[&x]); // command 3 (Fetch)
        let err = ctx.try_barrier().unwrap_err(); // command 4: kills worker 0
        assert!(matches!(err, OdinError::WorkerDead { worker: 0, .. }));
        let report = ctx.recover(&ck);
        assert_eq!(report.respawned, 2);
        assert_eq!(report.restored, vec![x.id()]);
        assert_eq!(report.lost, vec![orphan.id()]);
        // the checkpointed array replays bit-for-bit on the fresh pool
        assert_eq!(
            x.to_vec(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
            "replayed segments must match the checkpoint"
        );
        assert!(ctx.health_check().is_ok());
        // using the lost array is a diagnosable error, not a hang
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| orphan.to_vec()));
        let msg = *r.unwrap_err().downcast::<String>().expect("string panic");
        assert!(msg.contains("lost"), "diagnostic names the loss: {msg}");
    }

    #[test]
    fn resize_replays_checkpoint_at_new_worker_count() {
        // Grow 2 -> 4, then shrink 4 -> 3: checkpoint replay re-slices at
        // whatever size the pool lands on, bit-for-bit.
        let mut ctx = OdinContext::with_workers(2);
        let want: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let (id, ck) = {
            let x = ctx.linspace(1.0, 8.0, 8);
            (x.id(), ctx.checkpoint(&[&x]))
        }; // handle dropped: no borrows live across the &mut resize
        let report = ctx.resize(4, &ck);
        assert_eq!(report.respawned, 4);
        assert_eq!(report.restored, vec![id]);
        assert!(report.lost.is_empty());
        assert_eq!(ctx.n_workers(), 4);
        {
            let x = crate::array::DistArray::from_id(&ctx, id);
            assert_eq!(x.to_vec(), want, "resized pool must replay bitwise");
            // the resized pool is fully live: new work still runs on it
            let y = &x + &x;
            assert_eq!(y.to_vec()[7], 16.0);
            std::mem::forget(x); // keep id alive for the next resize
        }
        let report = ctx.resize(3, &ck);
        assert_eq!(report.respawned, 3);
        let x = crate::array::DistArray::from_id(&ctx, id);
        assert_eq!(x.to_vec(), want);
        assert!(ctx.health_check().is_ok());
        std::mem::forget(x);
    }
}
