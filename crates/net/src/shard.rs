//! Sharded parallel simulation with conservative lookahead (DESIGN.md §15).
//!
//! The topology is partitioned into shards; each shard is a full
//! [`Network`] that owns a subset of the nodes and runs the ordinary
//! event loop over them. Shards only interact through *arrivals* that
//! cross a partition boundary, and every such arrival is at least one
//! inter-shard link latency in the future — so a shard may safely process
//! every event strictly earlier than
//!
//! ```text
//! H_s = min over shards t ≠ s of (next_event_time(t) + dist(t, s))
//! ```
//!
//! where `dist` is the all-pairs shortest path over the shard graph with
//! edge weights equal to the minimum latency of the links crossing each
//! boundary (Floyd–Warshall, so multi-hop chains through intermediate
//! shards are bounded correctly). This is classic conservative
//! (CMB/YAWNS-style) synchronization: windows of independent work
//! separated by barriers where cross-shard arrivals are exchanged.
//!
//! Every shard shares one node identity — the dense index of `route.rs`,
//! by which the owner table here, each shard's node table and every
//! hand-off name a node — so nothing is re-resolved at a boundary.
//! Determinism is inherited, not re-proven: event keys (`EventSrc`) name
//! nodes by id, are locally derivable and unique, chaos RNG streams are per
//! sending node, and the fault schedule is replicated into every shard with
//! identical keys — so each shard reproduces exactly the per-node event
//! sequence of the scalar run, and the merged run is byte-identical to
//! [`NetworkBuilder::build`] + [`Network::run`] with the same
//! `(seed, schedule)`. The determinism suite (`tests/determinism.rs`)
//! asserts this for every app, both round executors, under chaos.
//!
//! One planner (`Coordinator::drive`) decides every round and one
//! per-shard step (`shard_round`) runs it; the executor only chooses
//! *where* the steps run — inline, all on the calling thread (the 1-shard
//! path, and the reference the suite diffs the threads against), or one
//! thread per shard (production): the calling thread plans and runs shard 0
//! itself, and meets one worker per other shard at a `Mailbox` once a
//! round. What a round hands out comes back — a `Turn` per shard, vectors
//! and all — so a run in steady state allocates nothing between rounds.

use crate::route::{RouteCore, NONE};
use crate::sim::{
    Event, EventKind, EventSrc, FlowPump, FlowSource, NetStats, Network, NetworkBuilder,
};
use crate::topo::{NodeId, Topology};
use crate::PrecomputedRoutes;
use netcl_bmv2::Switch;
use netcl_obs::Trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

// The threaded executor hands every shard but the first to its own thread.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Network>();
};

/// An assignment of every node to exactly one shard.
#[derive(Debug, Clone, Default)]
pub struct Partition {
    groups: Vec<Vec<NodeId>>,
}

impl Partition {
    /// A partition from explicit per-shard node groups.
    pub fn new(groups: Vec<Vec<NodeId>>) -> Partition {
        Partition { groups }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// The per-shard node groups.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// Packs weighted *units* (groups of nodes that must stay together —
    /// a fat-tree pod, a core switch) onto `shards` shards by longest
    /// processing time: units in descending weight order, each onto the
    /// currently lightest shard. Returns the partition and the resulting
    /// per-shard loads.
    ///
    /// Deterministic: ties in weight break toward the lower unit index and
    /// ties in load toward the lower shard index, so the assignment is a
    /// pure function of the input order. LPT's bound applies — the busiest
    /// shard carries at most `total/shards + max_unit_weight`, which the
    /// partitioner proptests assert on random fat-trees.
    pub fn balanced_with_weights(
        units: Vec<(Vec<NodeId>, u64)>,
        shards: usize,
    ) -> (Partition, Vec<u64>) {
        let shards = shards.max(1);
        let mut order: Vec<usize> = (0..units.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(units[i].1), i));
        let mut groups = vec![Vec::new(); shards];
        let mut loads = vec![0u64; shards];
        let mut units: Vec<Option<(Vec<NodeId>, u64)>> = units.into_iter().map(Some).collect();
        for i in order {
            let (nodes, w) = units[i].take().expect("each unit placed once");
            let lightest = (0..shards).min_by_key(|&s| (loads[s], s)).expect("shards ≥ 1");
            loads[lightest] += w;
            groups[lightest].extend(nodes);
        }
        (Partition { groups }, loads)
    }

    /// The shard of every topology node, by dense index: each must be in
    /// exactly one group. Ids the topology does not have are skipped —
    /// shard 0 answers for those (see [`Owners::home`]).
    fn owners(&self, core: &RouteCore) -> Result<Vec<u32>, String> {
        let mut owner = vec![NONE; core.nodes.len()];
        for (s, g) in self.groups.iter().enumerate() {
            for &n in g {
                let Some(i) = core.index(n) else { continue };
                if owner[i as usize] != NONE {
                    return Err(format!("node {n} assigned to more than one shard"));
                }
                owner[i as usize] = s as u32;
            }
        }
        match owner.iter().position(|&o| o == NONE) {
            Some(i) => Err(format!("topology node {} not assigned to any shard", core.nodes[i])),
            None => Ok(owner),
        }
    }
}

/// Who runs what in a sharded network: the shared node identity plus the
/// shard of every topology node, by dense index.
struct Owners {
    core: Arc<RouteCore>,
    shard: Vec<u32>,
}

impl Owners {
    /// The shard that answers for `node`. An id the topology does not have
    /// — a host declared but never linked, a driver injection naming an
    /// unknown host — resolves to shard 0: topology and routing are
    /// replicated and counters merge, so any shard reproduces the scalar
    /// run's unroutable drop.
    fn home(&self, node: NodeId) -> usize {
        self.core.index(node).map_or(0, |i| self.shard[i as usize] as usize)
    }
}

impl NetworkBuilder {
    /// Builds the configuration as a set of shard networks coordinated by
    /// a [`ShardedNetwork`]. Every topology node and every added
    /// device/host must be assigned to exactly one shard, and every link
    /// crossing a shard boundary must have nonzero latency (the lookahead
    /// window collapses otherwise).
    pub fn build_sharded(self, partition: Partition) -> Result<ShardedNetwork, String> {
        let routes = PrecomputedRoutes::new(&self.topology);
        self.build_sharded_with(partition, &routes)
    }

    /// [`Self::build_sharded`] with a route cache precomputed by
    /// [`crate::PrecomputedRoutes::new`] **from this same topology**. A
    /// caller sweeping shard counts over one fat-tree rebuilds the network
    /// per count; the switch forest (seconds and ~190 MB at 10⁵ hosts) is
    /// identical every time and should be paid for once.
    pub fn build_sharded_with(
        self,
        partition: Partition,
        routes: &PrecomputedRoutes,
    ) -> Result<ShardedNetwork, String> {
        let nsh = partition.num_shards();
        if nsh == 0 {
            return Err("partition has no shards".into());
        }
        let core = &routes.cache.core;
        let owners = Owners { shard: partition.owners(core)?, core: Arc::clone(core) };
        // Topology nodes are all assigned by now; an id the topology does
        // not have must at least be named by the partition.
        let assigned = |n: NodeId| {
            core.index(n).is_some() || partition.groups.iter().flatten().any(|&m| m == n)
        };
        if let Some((id, ..)) = self.devices.iter().find(|d| !assigned(NodeId::Device(d.0))) {
            return Err(format!("device {id} not assigned to any shard"));
        }
        if let Some((id, _)) = self.hosts.iter().find(|h| !assigned(NodeId::Host(h.0))) {
            return Err(format!("host {id} not assigned to any shard"));
        }
        if let Some(id) = self.restart_hooks.keys().find(|&&id| !assigned(NodeId::Device(id))) {
            return Err(format!("restart hook for device {id}, which no shard owns"));
        }
        let dist = lookahead_matrix(&self.topology, &owners, nsh)?;

        // Split the configuration by owner. The full topology, seed, and
        // fault schedule are replicated into every shard: topology for
        // routing (paths cross shards), the seed because per-node RNG
        // streams derive from it, the schedule so fault keys and fault
        // *state* (downed links, partitions, failed devices) match the
        // scalar run in every shard. Devices, hosts, and restart hooks go
        // only to their owner.
        let mut parts: Vec<NetworkBuilder> = (0..nsh)
            .map(|_| NetworkBuilder {
                topology: self.topology.clone(),
                seed: self.seed,
                faults: self.faults.clone(),
                // Rule-update schedules replicate like faults so update
                // keys agree in every shard; application is owner-only.
                updates: self.updates.clone(),
                observe: self.observe,
                ..NetworkBuilder::default()
            })
            .collect();
        for dev in self.devices {
            parts[owners.home(NodeId::Device(dev.0))].devices.push(dev);
        }
        for host in self.hosts {
            parts[owners.home(NodeId::Host(host.0))].hosts.push(host);
        }
        for (id, hook) in self.restart_hooks {
            parts[owners.home(NodeId::Device(id))].restart_hooks.insert(id, hook);
        }
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.build_part_with(Some((&owners.shard, i as u32)), routes.cache.clone()))
            .collect();
        let co = Coordinator {
            owners,
            dist,
            ext_seq: 0,
            rounds: 0,
            busy_ns: vec![0; nsh],
            critical_path_ns: 0,
            peak_queue: 0,
            flows: FlowPump::default(),
            turns: (0..nsh).map(|_| Turn::default()).collect(),
            eff: Vec::with_capacity(nsh),
        };
        Ok(ShardedNetwork { shards, co, threaded: true })
    }
}

/// All-pairs conservative lookahead over the shard graph: edge weight
/// between adjacent shards is the minimum latency among the links crossing
/// that boundary; Floyd–Warshall closes the matrix so chains through
/// intermediate shards are bounded too.
fn lookahead_matrix(topo: &Topology, owners: &Owners, nsh: usize) -> Result<Vec<Vec<u64>>, String> {
    let mut dist = vec![vec![u64::MAX; nsh]; nsh];
    for (s, row) in dist.iter_mut().enumerate() {
        row[s] = 0;
    }
    for node in topo.nodes() {
        let a = owners.home(node);
        for &(nb, spec) in topo.neighbors(node) {
            let b = owners.home(nb);
            if a == b {
                continue;
            }
            if spec.latency_ns == 0 {
                return Err(format!(
                    "inter-shard link {node} — {nb} has zero latency: no lookahead window"
                ));
            }
            if spec.latency_ns < dist[a][b] {
                dist[a][b] = spec.latency_ns;
            }
        }
    }
    for k in 0..nsh {
        for i in 0..nsh {
            for j in 0..nsh {
                let via = dist[i][k].saturating_add(dist[k][j]);
                if via < dist[i][j] {
                    dist[i][j] = via;
                }
            }
        }
    }
    Ok(dist)
}

/// Cap (ns past the globally earliest event) on how far the streamed
/// injector pre-pumps flows each round. Flows inside the conservative
/// window are known-future external events, so injecting them eagerly is
/// free — and essential: clamping every horizon at the *next* flow would
/// shrink rounds to one inter-arrival gap (~ns) and serialize the run on
/// round overhead. The cap bounds live memory to O(window / mean gap)
/// flows when horizons are unbounded (single shard, drained queues).
const PUMP_WINDOW_NS: u64 = 65_536;

/// Shard `s`'s horizon for one window. It must not advance past the
/// earliest arrival it does not yet know about. Such an arrival is a chain
/// starting at some shard's pending event and ending at `s`:
///
/// * starting at `t ≠ s`: no earlier than `next_t + dist(t, s)`;
/// * starting at `s` *itself* and bouncing back (s → t → s): no earlier
///   than `next_s + min over t≠s of (dist(s,t) + dist(t,s))`. Dropping
///   this term is the classic conservative-sync mistake — a shard runs
///   far ahead on its own sends and the replies land in its past.
///
/// The shard holding the globally earliest event always gets a horizon
/// past it (inter-shard distances are ≥ 1), so every round progresses.
fn horizon_of(dist: &[Vec<u64>], nexts: &[Option<u64>], s: usize) -> u64 {
    let mut h = u64::MAX;
    let mut round_trip = u64::MAX;
    for (t, next) in nexts.iter().enumerate() {
        if t == s {
            continue;
        }
        round_trip = round_trip.min(dist[s][t].saturating_add(dist[t][s]));
        if let Some(nt) = next {
            h = h.min(nt.saturating_add(dist[t][s]));
        }
    }
    if let Some(ns) = nexts[s] {
        h = h.min(ns.saturating_add(round_trip));
    }
    h
}

/// What waits at the coordinator for one shard between rounds: cross-shard
/// arrivals and pumped flows, each already carrying the key the scalar run
/// would assign. Delivered as the shard's next round starts, or when `run`
/// returns; emptied by delivery, never dropped, so both vectors keep the
/// capacity the busiest round needed.
#[derive(Default)]
struct Inbox {
    xs: Vec<Event>,
    flows: Vec<(u64, EventSrc, u32, Vec<u8>)>,
    /// The earliest time among both, kept as they are pushed.
    earliest: Option<u64>,
}

impl Inbox {
    fn push_arrival(&mut self, ev: Event) {
        self.note(ev.time);
        self.xs.push(ev);
    }

    fn push_flow(&mut self, at: u64, key: EventSrc, host: u32, bytes: Vec<u8>) {
        self.note(at);
        self.flows.push((at, key, host, bytes));
    }

    fn note(&mut self, at: u64) {
        self.earliest = Some(self.earliest.map_or(at, |e| e.min(at)));
    }

    fn deliver(&mut self, sh: &mut Network) {
        for (at, key, host, bytes) in self.flows.drain(..) {
            let host = sh.intern(NodeId::Host(host));
            sh.push_keyed(at, key, EventKind::HostSend(host, bytes));
        }
        for ev in self.xs.drain(..) {
            sh.accept(ev);
        }
        self.earliest = None;
    }
}

/// One shard's share of one round, out and back: the planner fills in the
/// first three fields, [`shard_round`] empties the inbox and fills in the
/// rest. Each shard has one, for good — the value that goes to the shard is
/// the value that returns, so its vectors are allocated once a run, not
/// once a round.
#[derive(Default)]
struct Turn {
    /// The shard runs every event strictly before this time.
    horizon: u64,
    /// What is left of the run's `max_events`.
    budget: u64,
    inbox: Inbox,
    /// Events processed, and the wall-clock nanoseconds that took.
    did: u64,
    busy_ns: u64,
    /// Outbound cross-shard arrivals, for the planner to route.
    out: Vec<Event>,
    /// The shard's next event time: as `run` is called, then as each round
    /// leaves it.
    next: Option<u64>,
    /// The shard's live-event footprint entering the round.
    live: u64,
}

/// One shard's share of one round, and the only place a shard is stepped:
/// take delivery of the inbox, then run every event before the horizon.
fn shard_round(sh: &mut Network, turn: &mut Turn) {
    for ev in &turn.inbox.xs {
        debug_assert!(
            ev.time >= sh.now(),
            "lookahead violation: {:?} for t={} but its shard is already at {}",
            ev.kind,
            ev.time,
            sh.now()
        );
    }
    turn.inbox.deliver(sh);
    turn.live = sh.queue_len() as u64;
    let t0 = Instant::now();
    turn.did = sh.run_until(turn.horizon, turn.budget);
    turn.busy_ns = t0.elapsed().as_nanos() as u64;
    sh.swap_xs_out(&mut turn.out);
    turn.next = sh.next_event_time();
}

/// Everything about a sharded run that is not a shard: who owns what, the
/// lookahead matrix, the flow pump, the turns, and the run's accounting.
/// Kept apart from the shards so the planner can hold it while worker
/// threads hold the shards.
struct Coordinator {
    owners: Owners,
    /// `dist[t][s]`: lookahead bound from shard `t` to shard `s`.
    dist: Vec<Vec<u64>>,
    /// Driver-injection counter, kept here so injection keys match the
    /// scalar run's no matter which shard owns the target.
    ext_seq: u64,
    /// Synchronization rounds executed.
    rounds: u64,
    /// Cumulative wall-clock busy time per shard.
    busy_ns: Vec<u64>,
    /// Sum over rounds of the slowest shard's busy time — the wall time an
    /// ideal machine with one core per shard would need. A projection:
    /// `netcl_e2e` exports it as `net.shard.critical_path_s` beside the
    /// wall clock, never in place of it.
    critical_path_ns: u64,
    /// High-water mark of live events across all shards, sampled as each
    /// round starts — the memory proxy showing streamed injection holds
    /// O(live events), not O(schedule).
    peak_queue: u64,
    /// Streamed driver injections ([`ShardedNetwork::set_flow_source`]).
    /// Flows due inside the conservative window are pumped eagerly before
    /// each round ([`PUMP_WINDOW_NS`]); only then does the next flow clamp
    /// horizons (no shard may run past an uninjected flow).
    flows: FlowPump,
    /// Per shard: its inbox between rounds, its last report after one.
    turns: Vec<Turn>,
    /// Planner scratch: each shard's effective next event.
    eff: Vec<Option<u64>>,
}

impl Coordinator {
    /// Pulls every flow due at or before `upto` into its owner's inbox,
    /// with the `External` keys a scalar run would assign.
    fn pump(&mut self, upto: u64) {
        self.flows.drain_upto(upto, |at, host, bytes| {
            self.ext_seq += 1;
            let home = self.owners.home(NodeId::Host(host));
            self.turns[home].inbox.push_flow(at, EventSrc::External(self.ext_seq), host, bytes);
        });
    }

    /// Refreshes `eff`, each shard's effective next event: the earliest of
    /// its own queue head and anything waiting in its inbox.
    fn effective(&mut self) {
        self.eff.clear();
        let next = |t: &Turn| t.next.into_iter().chain(t.inbox.earliest).min();
        self.eff.extend(self.turns.iter().map(next));
    }

    /// The round planner. Until the run drains or ~`max_events` are
    /// processed, plans one round — every shard's horizon and budget beside
    /// its inbox — and hands it to `exec(round, turns)`, which runs
    /// [`shard_round`] once per shard and leaves each report in its turn.
    /// On entry `turns[s].next` is shard `s`'s next event time.
    fn drive(&mut self, max_events: u64, mut exec: impl FnMut(u64, &mut [Turn])) -> u64 {
        let nsh = self.turns.len();
        let mut total = 0u64;
        while total < max_events {
            self.effective();
            let g = self.eff.iter().flatten().copied().min();
            let flow = self.flows.next_at();
            if let Some(f) = flow.filter(|&f| g.is_none_or(|g| f <= g)) {
                // Every pending event is at or after the next flow: pull
                // in all flows due by the earliest event (at least one)
                // and plan again with them waiting.
                self.pump(g.unwrap_or(f));
                continue;
            }
            let Some(g) = g else { break };
            if flow.is_some() {
                // Eager pump: take in every flow due inside this round's
                // conservative window (capped), so the window is bounded
                // by lookahead, not by the flow inter-arrival gap.
                let h_min = (0..nsh).map(|s| horizon_of(&self.dist, &self.eff, s)).min();
                self.pump(h_min.unwrap_or(u64::MAX).min(g.saturating_add(PUMP_WINDOW_NS)));
                self.effective();
            }
            // No shard may run past the next uninjected flow. The pumps
            // above guarantee it is strictly after the earliest event, so
            // the round still progresses.
            let next_flow = self.flows.next_at().unwrap_or(u64::MAX);
            for (s, turn) in self.turns.iter_mut().enumerate() {
                turn.horizon = horizon_of(&self.dist, &self.eff, s).min(next_flow);
                turn.budget = max_events - total;
            }
            exec(self.rounds, &mut self.turns);
            let (mut round, mut round_max, mut live, mut moved) = (0u64, 0u64, 0u64, false);
            for i in 0..nsh {
                let turn = &mut self.turns[i];
                round += turn.did;
                self.busy_ns[i] += turn.busy_ns;
                round_max = round_max.max(turn.busy_ns);
                live += turn.live;
                // Hand-off order across shards is irrelevant: event keys
                // are unique and the owner's heap orders by them, so the
                // pop order is the same whatever the insertion sequence.
                let mut out = std::mem::take(&mut turn.out);
                for ev in out.drain(..) {
                    let EventKind::Arrive(target, _) = ev.kind else {
                        unreachable!("only arrivals cross shards: {ev:?}")
                    };
                    self.turns[self.owners.shard[target as usize] as usize].inbox.push_arrival(ev);
                    moved = true;
                }
                self.turns[i].out = out;
            }
            total += round;
            self.rounds += 1;
            self.critical_path_ns += round_max;
            self.peak_queue = self.peak_queue.max(live);
            if round == 0 && !moved {
                break;
            }
        }
        total
    }
}

/// How long a wait at a [`Mailbox`] spins before it starts yielding: long
/// enough to catch a peer that is a few instructions from done without a
/// system call, and no longer — when both sides share a core (shards
/// outnumber cores, or a neighbour took the other one) every spun
/// microsecond is taken from the very thread waited for. Measured on
/// `fattree_calc_2shard` (DESIGN.md §15): 5 and 40 µs read the same with a
/// core per thread; pinned to one core 40 µs costs a quarter of the run.
const SPIN: Duration = Duration::from_micros(5);

/// How long a wait has lasted when it parks. Between [`SPIN`] and this it
/// calls `yield_now`, which returns at once while the peer has a core of its
/// own and hands this one over when it has not. Past this the peer is in a
/// long round or descheduled, and a parked waiter costs one wake-up, not a
/// core. The figure is loose: 50 µs to 1 ms measured alike.
const PARK_AFTER: Duration = Duration::from_micros(200);

/// Waits for `ready()`: spin, then yield, then park. Whoever makes `ready`
/// true unparks the waiter afterwards, and an unpark that comes first is
/// kept as a token, so the wake-up cannot be lost; a stale token costs one
/// more trip round the loop.
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        let waited = start.elapsed();
        if waited < SPIN {
            std::hint::spin_loop();
        } else if waited < PARK_AFTER {
            std::thread::yield_now();
        } else {
            std::thread::park();
        }
    }
}

/// `posted` once the run is over: the worker leaves.
const STOP: u64 = u64::MAX;

/// Why a slot's lock cannot be poisoned.
const MOVES_ONLY: &str = "a mailbox slot is locked only to move a value in or out";

/// Where the calling thread and one worker meet, twice a round: the caller
/// puts the shard's [`Turn`] in `command` and counts the round in `posted`;
/// the worker runs it, puts it — or why it could not — in `report`, and
/// counts it in `reported`. A counter is stored (`Release`) after its slot
/// is filled and loaded (`Acquire`) before the slot is emptied, and each
/// side touches a slot only on its side of that pair, so the locks are
/// never contended.
#[derive(Default)]
struct Mailbox {
    posted: AtomicU64,
    reported: AtomicU64,
    command: Mutex<Option<Turn>>,
    report: Mutex<Option<Result<Turn, String>>>,
}

impl Mailbox {
    /// The caller's half of a round's start; it unparks the worker next.
    fn post(&self, round: u64, turn: Turn) {
        *self.command.lock().expect(MOVES_ONLY) = Some(turn);
        self.posted.store(round, Ordering::Release);
    }

    /// The caller's half of a round's end.
    fn collect(&self, round: u64) -> Result<Turn, String> {
        wait_until(|| self.reported.load(Ordering::Acquire) == round);
        self.report.lock().expect(MOVES_ONLY).take().expect("reported, so filled")
    }

    /// The worker: runs every round posted for `sh` until [`STOP`].
    fn serve(&self, sh: &mut Network, caller: &Thread) {
        let mut round = 0;
        loop {
            wait_until(|| self.posted.load(Ordering::Acquire) != round);
            round = self.posted.load(Ordering::Acquire);
            if round == STOP {
                return;
            }
            let mut turn =
                self.command.lock().expect(MOVES_ONLY).take().expect("posted, so filled");
            let report = contained_round(sh, &mut turn).map(|()| turn);
            *self.report.lock().expect(MOVES_ONLY) = Some(report);
            self.reported.store(round, Ordering::Release);
            caller.unpark();
        }
    }
}

/// [`shard_round`] with a panic in a host handler or a switch caught and
/// described — the horizon the shard was running to, the simulated time it
/// had reached, the panic's message — so the run can fail naming the shard,
/// wherever that shard's thread is, and a dead worker cannot leave the
/// caller waiting for its report.
fn contained_round(sh: &mut Network, turn: &mut Turn) -> Result<(), String> {
    let horizon = turn.horizon;
    catch_unwind(AssertUnwindSafe(|| shard_round(sh, turn))).map_err(|cause| {
        let why = cause
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| cause.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        format!("(horizon {horizon}, clock {}): {why}", sh.now())
    })
}

/// Ends the workers when the run does, return or unwind: without it a
/// panic on the calling thread would leave them parked and the scope
/// joining them forever.
struct Release<'a> {
    mailboxes: &'a [Mailbox],
    workers: Vec<Thread>,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        for (mailbox, worker) in self.mailboxes.iter().zip(&self.workers) {
            mailbox.posted.store(STOP, Ordering::Release);
            worker.unpark();
        }
    }
}

/// The threaded executor: the calling thread plans each round, posts every
/// other shard's turn to that shard's worker, runs shard 0 itself, and
/// collects — so `n` shards are `n` threads, and a round costs each worker
/// one rendezvous. Workers live for this one call.
fn run_on_workers(shards: &mut [Network], co: &mut Coordinator, max_events: u64) -> u64 {
    let (first, rest) = shards.split_first_mut().expect("a sharded network has a shard");
    let mailboxes: Vec<Mailbox> = rest.iter().map(|_| Mailbox::default()).collect();
    let caller = std::thread::current();
    std::thread::scope(|scope| {
        let mut release = Release { mailboxes: &mailboxes, workers: Vec::new() };
        for (sh, mailbox) in rest.iter_mut().zip(&mailboxes) {
            let caller = caller.clone();
            let worker = scope.spawn(move || mailbox.serve(sh, &caller));
            release.workers.push(worker.thread().clone());
        }
        co.drive(max_events, |round, turns| {
            let fail = |shard: usize, what: String| -> ! {
                panic!("shard {shard} panicked in round {round} {what}")
            };
            // A fresh mailbox reads 0, "nothing posted".
            let posted = round + 1;
            let (mine, theirs) = turns.split_first_mut().expect("one turn per shard");
            for ((mailbox, worker), turn) in
                mailboxes.iter().zip(&release.workers).zip(&mut *theirs)
            {
                mailbox.post(posted, std::mem::take(turn));
                worker.unpark();
            }
            if let Err(what) = contained_round(first, mine) {
                fail(0, what);
            }
            for (i, (mailbox, turn)) in mailboxes.iter().zip(theirs).enumerate() {
                *turn = mailbox.collect(posted).unwrap_or_else(|what| fail(i + 1, what));
            }
        })
    })
}

/// A set of shard networks advancing in conservative-lookahead windows.
///
/// Mirrors the driver surface of [`Network`] (sends, timers, faults,
/// accessors); stats are merged across shards on demand, in shard-index
/// order, via [`NetStats::accumulate`] — whose order-independence is
/// itself under test — and traces by [`ShardedNetwork::take_trace`].
pub struct ShardedNetwork {
    shards: Vec<Network>,
    co: Coordinator,
    threaded: bool,
}

impl std::fmt::Debug for ShardedNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNetwork")
            .field("shards", &self.shards.len())
            .field("rounds", &self.co.rounds)
            .field("threaded", &self.threaded)
            .finish_non_exhaustive()
    }
}

impl ShardedNetwork {
    /// Selects where rounds execute: on one thread per shard, the calling
    /// thread among them (the default), or all inline on the calling
    /// thread. One planner drives both, so results and [`Self::rounds`]
    /// are identical; the inline executor exists so the determinism suite
    /// can diff the threads against it.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// The shard that answers for `node` (see [`Owners::home`]).
    fn home(&self, node: NodeId) -> &Network {
        &self.shards[self.co.owners.home(node)]
    }

    fn home_mut(&mut self, node: NodeId) -> &mut Network {
        &mut self.shards[self.co.owners.home(node)]
    }

    /// Injects a driver event into the owner of `host` — `kind` is given
    /// the host's index there — with the key the scalar run would assign
    /// to this injection.
    fn inject(&mut self, host: u32, at_ns: u64, kind: impl FnOnce(u32) -> EventKind) {
        self.co.ext_seq += 1;
        let key = EventSrc::External(self.co.ext_seq);
        let home = self.home_mut(NodeId::Host(host));
        let host = home.intern(NodeId::Host(host));
        home.push_keyed(at_ns, key, kind(host));
    }

    /// Injects a send from a host at an absolute time.
    pub fn send_from_host(&mut self, host: u32, at_ns: u64, bytes: Vec<u8>) {
        self.inject(host, at_ns, |host| EventKind::HostSend(host, bytes));
    }

    /// Arms a host timer at an absolute time.
    pub fn set_host_timer(&mut self, host: u32, at_ns: u64, token: u64) {
        self.inject(host, at_ns, |host| EventKind::Timer(host, token));
    }

    /// Attaches a lazy flow schedule (see [`Network::set_flow_source`]):
    /// flows are pulled, keyed, and routed to their owner shards as rounds
    /// reach each injection time. Byte-identical to injecting the whole
    /// schedule via [`Self::send_from_host`] up front, with memory bounded
    /// by live events instead of schedule length. Call before any other
    /// driver injection.
    pub fn set_flow_source(&mut self, source: FlowSource) {
        self.co.flows = FlowPump::new(source);
    }

    /// Runs until every shard drains or ~`max_events` are processed
    /// (a soft cap: each window may overshoot by one shard window).
    /// Returns the number of events processed across all shards.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let ShardedNetwork { shards, co, threaded } = self;
        for (sh, turn) in shards.iter().zip(&mut co.turns) {
            turn.next = sh.next_event_time();
        }
        let total = if *threaded && shards.len() > 1 {
            run_on_workers(shards, co, max_events)
        } else {
            co.drive(max_events, |_, turns| {
                for (sh, turn) in shards.iter_mut().zip(turns) {
                    shard_round(sh, turn);
                }
            })
        };
        // Stopping at the `max_events` cap leaves hand-offs and pumped
        // flows undelivered: put them in their owner shards so the next
        // `run` call continues from exactly this state, per-node counts folded.
        for (sh, turn) in shards.iter_mut().zip(&mut co.turns) {
            turn.inbox.deliver(sh);
            sh.fold_counters();
        }
        total
    }

    /// Merged statistics across shards (shard-index order).
    pub fn stats(&self) -> NetStats {
        let mut s = NetStats::default();
        for sh in &self.shards {
            s.accumulate(&sh.stats);
        }
        s
    }

    /// Each shard's own statistics, in shard-index order — the inputs the
    /// merge folds over (and what the accumulate-order tests exercise).
    pub fn shard_stats(&self) -> Vec<&NetStats> {
        self.shards.iter().map(|s| &s.stats).collect()
    }

    /// Takes every shard's trace and absorbs them, in shard order, into
    /// one timeline; `None` when the network was built without
    /// [`NetworkBuilder::observe`]. Subsequent events are no longer traced.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let mut traces = self.shards.iter_mut().filter_map(Network::take_trace);
        let mut merged = traces.next()?;
        traces.for_each(|t| merged.absorb(t));
        Some(merged)
    }

    /// Messages a sink host received, with arrival timestamps, read from
    /// the shard that owns it; empty for a handler host
    /// ([`Network::host_received`]).
    pub fn host_received(&self, id: u32) -> &[(u64, Vec<u8>)] {
        self.home(NodeId::Host(id)).host_received(id)
    }

    /// Direct control-plane access to a device's switch (on its owner).
    pub fn switch_mut(&mut self, id: u16) -> Option<&mut Switch> {
        self.home_mut(NodeId::Device(id)).switch_mut(id)
    }

    /// Immutable switch access.
    pub fn switch(&self, id: u16) -> Option<&Switch> {
        self.home(NodeId::Device(id)).switch(id)
    }

    /// Synchronization rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.co.rounds
    }

    /// Cumulative wall-clock busy nanoseconds per shard.
    pub fn busy_ns(&self) -> &[u64] {
        &self.co.busy_ns
    }

    /// Sum over rounds of the slowest shard's busy time — the run's
    /// critical path on an ideal one-core-per-shard machine.
    pub fn critical_path_ns(&self) -> u64 {
        self.co.critical_path_ns
    }

    /// High-water mark of live events across all shards, sampled at round
    /// starts. With a flow source attached this is the run's memory
    /// footprint proxy — O(live events) rather than O(schedule length).
    pub fn peak_queue(&self) -> u64 {
        self.co.peak_queue
    }
}
