//! The complete BIPS deployment in one deterministic simulation.
//!
//! This is the paper's Figure 1 in executable form: a building of rooms,
//! one workstation (Bluetooth master + LAN host) per room, a central
//! server on the same LAN, and mobile users — each a walker carrying a
//! Bluetooth handheld — moving through the coverage cells.
//!
//! The event flow stitches the substrates together:
//!
//! * **mobility → radio**: cell enter/exit notifications update the
//!   baseband's range relation;
//! * **radio → tracking**: FHS sightings feed each workstation's
//!   [`WorkstationTracker`]; fixed-interval sweeps diff presence and
//!   ship *update-on-change* messages to the server over the reliable
//!   LAN transport;
//! * **radio → login**: a newly discovered, not-yet-logged-in handheld is
//!   paged; credentials cross the link and are relayed to the server,
//!   which binds `userid ↔ BD_ADDR`; the link is then released;
//! * **queries**: a scripted [`SysEvent::locate`] pages the querying
//!   user's handheld, relays the query, and returns the target's cell
//!   plus the precomputed shortest path.

use std::collections::HashMap;

use bips_lan::network::{Datagram, Lan, LanConfig, LanEvent};
use bips_lan::rpc::{CorrelationId, RpcCodec, RpcFrame};
use bips_lan::transport::{AppMessage, Reliable, ReliableConfig, TransportEvent};
use bips_lan::HostId;
use bips_mobility::model::{MobEvent, MobNotification, MobilityModel, WalkerId};
use bips_mobility::walker::{WalkMode, WalkerConfig};
use bips_mobility::Building;
use bt_baseband::medium::{Baseband, BbEvent, BbNotification, MasterId, SlaveId};
use bt_baseband::params::{DutyCycle, MasterConfig, MediumConfig, ScanPattern, SlaveConfig};
use bt_baseband::BdAddr;
use desim::compose::MappedContext;
use desim::{Context, Engine, SeedDeriver, SimDuration, SimTime, World};

use crate::graph::WsGraph;
use crate::handheld::HandheldMsg;
use crate::protocol::{HistoryOutcome, LocateOutcome, Request, Response};
use crate::registry::{AccessRights, Registry};
use crate::server::BipsServer;
use crate::workstation::WorkstationTracker;

/// One mobile BIPS user: registration data plus movement behaviour.
#[derive(Debug, Clone)]
pub struct UserSpec {
    /// Login name.
    pub name: String,
    /// Password.
    pub password: String,
    /// Access rights.
    pub rights: AccessRights,
    /// Starting room (index into the building's rooms).
    pub start_room: usize,
    /// Movement behaviour.
    pub mode: WalkMode,
    /// Whether the handheld logs in as soon as it is first enrolled
    /// (default). Disable to model a guest device whose owner never logs
    /// in, or script [`SysEvent::login`] explicitly.
    pub auto_login: bool,
}

impl UserSpec {
    /// A user with open rights who random-walks from `start_room`.
    pub fn new(name: impl Into<String>, start_room: usize) -> UserSpec {
        UserSpec {
            name: name.into(),
            password: "pw".into(),
            rights: AccessRights::open(),
            start_room,
            mode: WalkMode::RandomWalk {
                pause: (SimDuration::from_secs(5), SimDuration::from_secs(20)),
            },
            auto_login: true,
        }
    }

    /// Sets whether the handheld logs in on first enrollment.
    pub fn auto_login(mut self, auto: bool) -> UserSpec {
        self.auto_login = auto;
        self
    }

    /// Sets the password.
    pub fn password(mut self, pw: impl Into<String>) -> UserSpec {
        self.password = pw.into();
        self
    }

    /// Sets the access rights.
    pub fn rights(mut self, rights: AccessRights) -> UserSpec {
        self.rights = rights;
        self
    }

    /// Sets the movement mode.
    pub fn mode(mut self, mode: WalkMode) -> UserSpec {
        self.mode = mode;
        self
    }
}

/// Deployment-wide configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The building (rooms become cells/workstations/graph nodes 1:1).
    pub building: Building,
    /// Master duty cycle (paper §5: 3.84 s inquiry / 15.4 s cycle).
    pub duty: DutyCycle,
    /// Presence sweep interval ("presences are revealed at fixed
    /// intervals").
    pub sweep_interval: SimDuration,
    /// How long without a sighting before a device is declared absent.
    pub absence_timeout: SimDuration,
    /// LAN parameters.
    pub lan: LanConfig,
    /// Radio medium parameters.
    pub medium: MediumConfig,
    /// Batch a sweep's presence changes into one LAN message (amortizes
    /// RPC overhead; the paper's per-change reporting is the default).
    pub batch_updates: bool,
    /// Fold the mobility model's per-cell crossing counters into path
    /// edge weights once per sweep round: congested cells get heavier
    /// edges, so locate answers route around traffic. Off by default
    /// (the paper's weights are static).
    pub congestion_weights: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            building: Building::academic_department(),
            duty: DutyCycle::periodic(
                SimDuration::from_millis(3840),
                SimDuration::from_millis(15_400),
            ),
            sweep_interval: SimDuration::from_millis(15_400),
            absence_timeout: SimDuration::from_millis(2 * 15_400),
            lan: LanConfig::default(),
            medium: MediumConfig::default(),
            batch_updates: false,
            congestion_weights: false,
        }
    }
}

/// A system event: the union of every substrate's events plus BIPS
/// housekeeping and scripted commands.
#[derive(Debug)]
pub enum SysEvent {
    /// Bluetooth medium event.
    Bb(BbEvent),
    /// LAN event.
    Lan(LanEvent),
    /// Reliable-transport timer.
    Tr(TransportEvent),
    /// Mobility event.
    Mob(MobEvent),
    /// Fixed-interval presence sweep of one workstation.
    Sweep {
        /// Workstation index.
        ws: usize,
    },
    /// Scripted command.
    Cmd(SysCommand),
}

/// Scripted user actions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SysCommand {
    /// `user` asks for the shortest path to `target`.
    Locate {
        /// Querying user name.
        user: String,
        /// Target user name.
        target: String,
    },
    /// `user` logs out (and stays out until a scripted login).
    Logout {
        /// User name.
        user: String,
    },
    /// `user` (re-)enables login; the next enrollment completes it.
    Login {
        /// User name.
        user: String,
    },
    /// The central server crashes and restarts, losing RAM state.
    ServerRestart,
    /// `user` asks where `target` was between two instants.
    History {
        /// Querying user name.
        user: String,
        /// Target user name.
        target: String,
        /// Window start, seconds of simulation time.
        from_s: u64,
        /// Window end, seconds.
        to_s: u64,
    },
}

impl SysEvent {
    /// Scripted location query.
    pub fn locate(user: impl Into<String>, target: impl Into<String>) -> SysEvent {
        SysEvent::Cmd(SysCommand::Locate {
            user: user.into(),
            target: target.into(),
        })
    }

    /// Scripted logout.
    pub fn logout(user: impl Into<String>) -> SysEvent {
        SysEvent::Cmd(SysCommand::Logout { user: user.into() })
    }

    /// Scripted login (for users created with `auto_login(false)` or
    /// after a logout).
    pub fn login(user: impl Into<String>) -> SysEvent {
        SysEvent::Cmd(SysCommand::Login { user: user.into() })
    }

    /// Scripted server crash + restart (failure injection).
    pub fn restart_server() -> SysEvent {
        SysEvent::Cmd(SysCommand::ServerRestart)
    }

    /// Scripted movement-history query over `[from_s, to_s]` seconds.
    pub fn history(
        user: impl Into<String>,
        target: impl Into<String>,
        from_s: u64,
        to_s: u64,
    ) -> SysEvent {
        SysEvent::Cmd(SysCommand::History {
            user: user.into(),
            target: target.into(),
            from_s,
            to_s,
        })
    }
}

/// What a user asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Live "where is X" (the paper's query).
    Locate,
    /// Movement history over a window (extension).
    History {
        /// Window start, µs.
        from_us: u64,
        /// Window end, µs.
        to_us: u64,
    },
}

/// A completed (or failed) query, for assertions and reports.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRecord {
    /// Querying user.
    pub user: String,
    /// Target user.
    pub target: String,
    /// Live locate or history window.
    pub kind: QueryKind,
    /// When the command fired.
    pub issued_at: SimTime,
    /// When the answer reached the querying handheld (`None` if still
    /// pending).
    pub answered_at: Option<SimTime>,
    /// The live-locate verdict (`None` while pending or for history).
    pub outcome: Option<LocateOutcome>,
    /// The history verdict (`None` while pending or for live locates).
    pub history_outcome: Option<HistoryOutcome>,
}

/// System-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SystemStats {
    /// Logins completed at the server.
    pub logins_completed: u64,
    /// Update-on-change presence changes sent to the server.
    pub presence_updates_sent: u64,
    /// LAN messages those changes travelled in (== updates without
    /// batching; fewer with it).
    pub presence_messages_sent: u64,
    /// Announcements a naive periodic reporter would have sent.
    pub naive_announcements: u64,
    /// Location queries issued.
    pub queries_issued: u64,
    /// Location queries answered end-to-end.
    pub queries_answered: u64,
    /// Idle-sweep heartbeats sent (restart/liveness detection).
    pub heartbeats_sent: u64,
    /// Cell entries that left coverage again before the server learned of
    /// them (missed detections).
    pub missed_detections: u64,
    /// Workstation↔server RPCs completed (request matched by response).
    pub rpc_round_trips: u64,
}

/// Data-message tags on Bluetooth links.
const TAG_LOGIN_UP: u64 = 1;
const TAG_LOGIN_DOWN: u64 = 2;
const TAG_QUERY_UP: u64 = 3;
const TAG_QUERY_DOWN: u64 = 4;
const TAG_HISTORY_UP: u64 = 5;
const TAG_HISTORY_DOWN: u64 = 6;

#[derive(Debug)]
struct WsRuntime {
    master: MasterId,
    host: HostId,
    cell: usize,
    tracker: WorkstationTracker,
    rpc: RpcCodec,
    /// Outstanding RPCs issued by this workstation.
    pending: HashMap<CorrelationId, PendingRpc>,
}

#[derive(Debug, Clone, PartialEq)]
enum PendingRpc {
    Presence,
    Heartbeat,
    Login { handheld: usize },
    Logout,
    Locate { query: usize },
    History { query: usize },
}

#[derive(Debug)]
struct HandheldRt {
    slave: SlaveId,
    walker: WalkerId,
    addr: BdAddr,
    name: String,
    password: String,
    logged_in: bool,
    /// The user wants to be (or stay) logged in.
    wants_login: bool,
    login_in_flight: bool,
    /// Query ids waiting for this handheld to get a link.
    queued_queries: Vec<usize>,
    /// First sighting that found this handheld wanting a login; cleared
    /// when the login completes (enrollment-latency measurement).
    first_seen: Option<SimTime>,
}

#[derive(Debug)]
struct QueryRt {
    record: QueryRecord,
    handheld: usize,
    /// Set once the answer is ready and travelling down the link.
    outcome_ready: Option<LocateOutcome>,
    history_ready: Option<HistoryOutcome>,
}

/// The full BIPS deployment as a [`World`].
#[derive(Debug)]
pub struct BipsSystem {
    bb: Baseband,
    /// Reused buffer the medium's notifications are drained into; empty
    /// between events.
    bb_notes: Vec<BbNotification>,
    /// Reused buffers LAN deliveries and transport messages are drained
    /// into; empty between events.
    lan_deliveries: Vec<Datagram>,
    app_inbox: Vec<AppMessage>,
    lan: Lan,
    tr: Reliable,
    mob: MobilityModel,
    server: BipsServer,
    server_host: HostId,
    workstations: Vec<WsRuntime>,
    handhelds: Vec<HandheldRt>,
    host_to_ws: HashMap<usize, usize>,
    queries: Vec<QueryRt>,
    sweep_interval: SimDuration,
    /// Last server incarnation observed in any response; a bump means the
    /// server lost sessions and presence and everything must be re-sent.
    server_epoch_seen: u32,
    batch_updates: bool,
    /// When true, workstation 0's sweep folds the mobility crossing
    /// counters into path edge weights (congestion-driven churn).
    congestion_weights: bool,
    /// The static weights from the building, snapshotted at build time:
    /// `(a, b, w)` per undirected edge, `a < b`, in node order. The
    /// congestion fold scales these — it never compounds on itself.
    base_weights: Vec<(usize, usize, f64)>,
    /// Per-cell occupancy (devices the server believes present),
    /// integrated over time.
    occupancy: Vec<desim::stats::TimeWeighted>,
    stats: SystemStats,
    /// Ground-truth cell entries awaiting server-side detection:
    /// (device, cell) → entry instant.
    pending_detection: HashMap<(BdAddr, usize), SimTime>,
    /// Enter-cell → server-applied-presence latencies, seconds.
    detection_latency: desim::stats::OnlineStats,
    /// Exit-cell → server-applied-absence latencies, seconds.
    absence_latency: desim::stats::OnlineStats,
    /// Ground-truth cell exits awaiting server-side absence.
    pending_absence: HashMap<(BdAddr, usize), SimTime>,
    /// First-sighting → login-complete latencies, seconds.
    enrollment_latency: desim::stats::OnlineStats,
}

impl BipsSystem {
    /// Starts building a system from a configuration.
    pub fn builder(config: SystemConfig) -> SystemBuilder {
        SystemBuilder {
            config,
            users: Vec::new(),
        }
    }

    /// The central server (registry, DB, paths).
    pub fn server(&self) -> &BipsServer {
        &self.server
    }

    /// System counters.
    pub fn stats(&self) -> SystemStats {
        self.stats
    }

    /// The query log.
    pub fn queries(&self) -> Vec<QueryRecord> {
        self.queries.iter().map(|q| q.record.clone()).collect()
    }

    /// The radio medium (for low-level assertions).
    pub fn baseband(&self) -> &Baseband {
        &self.bb
    }

    /// The mobility ground truth.
    pub fn mobility(&self) -> &MobilityModel {
        &self.mob
    }

    /// Ground-truth tracking accuracy: the fraction of logged-in users
    /// whose DB cell matches a cell that physically contains them (or
    /// who are correctly recorded absent everywhere).
    pub fn tracking_accuracy(&self) -> f64 {
        let mut total = 0u32;
        let mut good = 0u32;
        for h in &self.handhelds {
            if !h.logged_in {
                continue;
            }
            total += 1;
            let truth = self.mob.cells_of(h.walker);
            match self.server.db().current_cell(h.addr) {
                Some(cell) => {
                    if truth.iter().any(|r| r.index() == cell) {
                        good += 1;
                    }
                }
                None => {
                    if truth.is_empty() {
                        good += 1;
                    }
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            f64::from(good) / f64::from(total)
        }
    }

    /// Where the DB believes `user` is (room index), if anywhere.
    pub fn db_cell_of(&self, user: &str) -> Option<usize> {
        self.server.locate_by_name(user)
    }

    /// Enter-cell → DB-presence latency samples (seconds). The tracking
    /// responsiveness the §5 duty-cycle choice trades against load.
    pub fn detection_latency(&self) -> desim::stats::OnlineStats {
        self.detection_latency
    }

    /// Exit-cell → DB-absence latency samples (seconds); dominated by the
    /// absence timeout.
    pub fn absence_latency(&self) -> desim::stats::OnlineStats {
        self.absence_latency
    }

    /// First-sighting → login-complete latency samples (seconds): how
    /// long a user who walked in wanting service waited to be enrolled.
    pub fn enrollment_latency(&self) -> desim::stats::OnlineStats {
        self.enrollment_latency
    }

    /// Exports counters from every substrate — baseband, LAN, transport,
    /// mobility — plus the core system/tracking/database/latency metrics
    /// into `metrics` (see `docs/OBSERVABILITY.md` for the catalog).
    ///
    /// `now` bounds the time-weighted aggregates (cell occupancy).
    pub fn export_metrics(&self, metrics: &mut desim::MetricSet, now: SimTime) {
        self.bb.export_metrics(metrics);
        self.lan.export_metrics(metrics);
        self.tr.export_metrics(metrics);
        self.mob.export_metrics(metrics);
        self.server.path_engine().export_metrics(metrics);

        let s = self.stats;
        metrics.set_counter("core.system.logins_completed", s.logins_completed);
        metrics.set_counter("core.system.presence_updates_sent", s.presence_updates_sent);
        metrics.set_counter(
            "core.system.presence_messages_sent",
            s.presence_messages_sent,
        );
        metrics.set_counter("core.system.naive_announcements", s.naive_announcements);
        metrics.set_counter("core.system.queries_issued", s.queries_issued);
        metrics.set_counter("core.system.queries_answered", s.queries_answered);
        metrics.set_counter("core.system.heartbeats_sent", s.heartbeats_sent);
        metrics.set_counter("core.system.missed_detections", s.missed_detections);
        metrics.set_counter("core.system.rpc_round_trips", s.rpc_round_trips);

        let mut sightings = 0u64;
        let mut changes = 0u64;
        let mut naive = 0u64;
        for ws in &self.workstations {
            let ts = ws.tracker.stats();
            sightings += ts.sightings;
            changes += ts.changes_emitted;
            naive += ts.naive_announcements;
        }
        metrics.set_counter("core.tracking.sightings", sightings);
        metrics.set_counter("core.tracking.changes_emitted", changes);
        metrics.set_counter("core.tracking.naive_announcements", naive);
        metrics.gauge("core.tracking.accuracy", self.tracking_accuracy());

        let db = self.server.db().stats();
        metrics.set_counter("core.db.applied", db.applied);
        metrics.set_counter("core.db.redundant", db.redundant);

        metrics.observe_stats("core.latency.detection_secs", &self.detection_latency);
        metrics.observe_stats("core.latency.absence_secs", &self.absence_latency);
        metrics.observe_stats("core.latency.enrollment_secs", &self.enrollment_latency);

        let occ = self.cell_occupancy(now);
        let mean_occ = if occ.is_empty() {
            0.0
        } else {
            occ.iter().sum::<f64>() / occ.len() as f64
        };
        metrics.gauge("core.occupancy.mean_devices_per_cell", mean_occ);
    }

    /// Time-weighted average number of devices the server believed were
    /// in each cell, over `[0, until)` — piconet utilization per room.
    pub fn cell_occupancy(&self, until: SimTime) -> Vec<f64> {
        self.occupancy
            .iter()
            .map(|t| t.average_until(until))
            .collect()
    }

    /// Whether `user` has completed login.
    pub fn is_logged_in(&self, user: &str) -> bool {
        self.handhelds.iter().any(|h| h.name == user && h.logged_in)
    }

    // ----- event plumbing ------------------------------------------------

    fn on_bb(&mut self, ctx: &mut Context<SysEvent>, ev: BbEvent) {
        self.bb
            .handle(&mut MappedContext::new(ctx, SysEvent::Bb), ev);
        let mut notes = std::mem::take(&mut self.bb_notes);
        self.bb.drain_notifications(&mut notes);
        for n in notes.drain(..) {
            match n {
                BbNotification::FhsSeen { master, slave, at } => {
                    let addr = self.bb.slave_addr(slave);
                    self.workstations[master.index()].tracker.sighting(addr, at);
                    let h = slave.index();
                    let needs_login = self.handhelds[h].wants_login
                        && !self.handhelds[h].logged_in
                        && !self.handhelds[h].login_in_flight;
                    if needs_login && self.handhelds[h].first_seen.is_none() {
                        self.handhelds[h].first_seen = Some(at);
                    }
                    let has_queries = !self.handhelds[h].queued_queries.is_empty();
                    if needs_login || has_queries {
                        self.bb.request_page(
                            &mut MappedContext::new(ctx, SysEvent::Bb),
                            master,
                            slave,
                        );
                    }
                }
                BbNotification::Discovered(_) => {}
                BbNotification::LinkEstablished { master, slave, .. } => {
                    self.on_link_up(ctx, master, slave);
                }
                BbNotification::DataDelivered {
                    master,
                    slave,
                    tag,
                    payload,
                    at,
                } => {
                    self.on_bb_data(ctx, master, slave, tag, &payload, at);
                }
                BbNotification::LinkLost { .. } => {
                    // Walked out of range mid-link: the tracker ages the
                    // sighting out on its own.
                }
                BbNotification::PageFailed { slave, .. } => {
                    // Allow a future sighting to retry the login page.
                    self.handhelds[slave.index()].login_in_flight = false;
                }
                BbNotification::FhsCollision { .. } => {}
            }
        }
        self.bb_notes = notes;
    }

    fn on_link_up(&mut self, ctx: &mut Context<SysEvent>, master: MasterId, slave: SlaveId) {
        let h = slave.index();
        if self.handhelds[h].wants_login
            && !self.handhelds[h].logged_in
            && !self.handhelds[h].login_in_flight
        {
            // Handheld sends its credentials up the link, as real bytes.
            self.handhelds[h].login_in_flight = true;
            let payload = HandheldMsg::LoginUp {
                user: self.handhelds[h].name.clone(),
                password: self.handhelds[h].password.clone(),
            }
            .encode();
            let _ = self.bb.send_data(
                &mut MappedContext::new(ctx, SysEvent::Bb),
                master,
                slave,
                payload,
                TAG_LOGIN_UP,
            );
        } else {
            self.flush_or_disconnect(ctx, master, slave);
        }
    }

    /// A Bluetooth data message finished crossing a link. The workstation
    /// decodes what actually arrived on the air — it never peeks at
    /// handheld state.
    fn on_bb_data(
        &mut self,
        ctx: &mut Context<SysEvent>,
        master: MasterId,
        slave: SlaveId,
        tag: u64,
        payload: &[u8],
        at: SimTime,
    ) {
        let ws = master.index();
        let h = slave.index();
        match tag {
            TAG_LOGIN_UP => {
                // Credentials reached the workstation: relay to server.
                let Ok(HandheldMsg::LoginUp { user, password }) = HandheldMsg::decode(payload)
                else {
                    return;
                };
                let req = Request::Login {
                    addr: self.handhelds[h].addr,
                    user,
                    password,
                };
                self.send_rpc(ctx, ws, req, PendingRpc::Login { handheld: h });
            }
            TAG_LOGIN_DOWN => {
                // Confirmation reached the handheld; release the link so
                // the piconet slot frees up and scanning resumes.
                if let Ok(HandheldMsg::LoginDown { .. }) = HandheldMsg::decode(payload) {
                    self.flush_or_disconnect(ctx, master, slave);
                }
            }
            TAG_QUERY_UP => {
                let Ok(HandheldMsg::QueryUp { target }) = HandheldMsg::decode(payload) else {
                    return;
                };
                let Some(&query) = self.handhelds[h].queued_queries.first() else {
                    return;
                };
                let req = Request::Locate {
                    from: self.handhelds[h].addr,
                    target,
                    from_cell: self.workstations[ws].cell as u32,
                };
                self.send_rpc(ctx, ws, req, PendingRpc::Locate { query });
            }
            TAG_HISTORY_UP => {
                let Ok(HandheldMsg::HistoryUp {
                    target,
                    from_us,
                    to_us,
                }) = HandheldMsg::decode(payload)
                else {
                    return;
                };
                let Some(&query) = self.handhelds[h].queued_queries.first() else {
                    return;
                };
                let req = Request::History {
                    from: self.handhelds[h].addr,
                    target,
                    from_us,
                    to_us,
                };
                self.send_rpc(ctx, ws, req, PendingRpc::History { query });
            }
            TAG_HISTORY_DOWN => {
                let Ok(HandheldMsg::HistoryDown(delivered)) = HandheldMsg::decode(payload) else {
                    return;
                };
                if let Some(q) = self.queries.iter_mut().find(|q| {
                    q.handheld == h && q.record.answered_at.is_none() && q.history_ready.is_some()
                }) {
                    q.record.answered_at = Some(at);
                    q.history_ready = None;
                    q.record.history_outcome = Some(delivered);
                    self.stats.queries_answered += 1;
                }
                let queries = &self.queries;
                self.handhelds[h]
                    .queued_queries
                    .retain(|&qi| queries[qi].record.answered_at.is_none());
                self.flush_or_disconnect(ctx, master, slave);
            }
            TAG_QUERY_DOWN => {
                // Result displayed on the handheld: what it shows is what
                // the radio delivered, decoded from the link bytes.
                let Ok(HandheldMsg::QueryDown(delivered)) = HandheldMsg::decode(payload) else {
                    return;
                };
                if let Some(q) = self.queries.iter_mut().find(|q| {
                    q.handheld == h && q.record.answered_at.is_none() && q.outcome_ready.is_some()
                }) {
                    q.record.answered_at = Some(at);
                    q.outcome_ready = None;
                    q.record.outcome = Some(delivered);
                    self.stats.queries_answered += 1;
                }
                let queries = &self.queries;
                self.handhelds[h]
                    .queued_queries
                    .retain(|&qi| queries[qi].record.answered_at.is_none());
                self.flush_or_disconnect(ctx, master, slave);
            }
            _ => {}
        }
    }

    /// After finishing an exchange: start the next queued query or drop
    /// the link.
    fn flush_or_disconnect(
        &mut self,
        ctx: &mut Context<SysEvent>,
        master: MasterId,
        slave: SlaveId,
    ) {
        let h = slave.index();
        if let Some(&query) = self.handhelds[h].queued_queries.first() {
            let (payload, tag) = self.up_message_for(query);
            let _ = self.bb.send_data(
                &mut MappedContext::new(ctx, SysEvent::Bb),
                master,
                slave,
                payload,
                tag,
            );
        } else {
            self.bb
                .disconnect(&mut MappedContext::new(ctx, SysEvent::Bb), master, slave);
        }
    }

    /// The link message that starts serving queued query `query`.
    fn up_message_for(&self, query: usize) -> (Vec<u8>, u64) {
        let rec = &self.queries[query].record;
        match rec.kind {
            QueryKind::Locate => (
                HandheldMsg::QueryUp {
                    target: rec.target.clone(),
                }
                .encode(),
                TAG_QUERY_UP,
            ),
            QueryKind::History { from_us, to_us } => (
                HandheldMsg::HistoryUp {
                    target: rec.target.clone(),
                    from_us,
                    to_us,
                }
                .encode(),
                TAG_HISTORY_UP,
            ),
        }
    }

    fn send_rpc(
        &mut self,
        ctx: &mut Context<SysEvent>,
        ws: usize,
        req: Request,
        pending: PendingRpc,
    ) {
        let (corr, framed) = self.workstations[ws].rpc.encode_request(&req.encode());
        self.workstations[ws].pending.insert(corr, pending);
        match &req {
            Request::Presence { .. } => {
                self.stats.presence_updates_sent += 1;
                self.stats.presence_messages_sent += 1;
            }
            Request::PresenceBatch { .. } => {
                self.stats.presence_messages_sent += 1;
            }
            _ => {}
        }
        let src = self.workstations[ws].host;
        let dst = self.server_host;
        self.tr.send(
            ctx,
            &mut self.lan,
            SysEvent::Lan,
            SysEvent::Tr,
            src,
            dst,
            framed,
        );
    }

    fn on_lan(&mut self, ctx: &mut Context<SysEvent>, ev: LanEvent) {
        self.lan
            .handle(&mut MappedContext::new(ctx, SysEvent::Lan), ev);
        let mut deliveries = std::mem::take(&mut self.lan_deliveries);
        self.lan.drain_deliveries(&mut deliveries);
        for d in deliveries.drain(..) {
            self.tr
                .on_datagram(ctx, &mut self.lan, SysEvent::Lan, SysEvent::Tr, d);
        }
        self.lan_deliveries = deliveries;
        let mut msgs = std::mem::take(&mut self.app_inbox);
        self.tr.drain_inbox(&mut msgs);
        for m in msgs.drain(..) {
            self.on_app_message(ctx, m);
        }
        self.app_inbox = msgs;
    }

    fn on_app_message(&mut self, ctx: &mut Context<SysEvent>, m: AppMessage) {
        let Some(rpc) = RpcCodec::decode_ref(&m) else {
            return;
        };
        match rpc {
            RpcFrame::Request {
                from,
                corr,
                payload,
                ..
            } => {
                debug_assert_eq!(m.dst, self.server_host, "requests go to the server");
                let Ok(req) = Request::decode(payload) else {
                    return;
                };
                let presence_items: Vec<(BdAddr, usize, bool)> = match &req {
                    Request::Presence {
                        cell,
                        addr,
                        present,
                    } => {
                        vec![(*addr, *cell as usize, *present)]
                    }
                    Request::PresenceBatch { cell, items } => {
                        items.iter().map(|&(a, p)| (a, *cell as usize, p)).collect()
                    }
                    Request::NotifyBatch { items } => items
                        .iter()
                        .map(|n| (n.addr, n.cell as usize, n.present))
                        .collect(),
                    _ => Vec::new(),
                };
                let resp = self.server.handle(req, ctx.now());
                let any_changed = matches!(
                    resp,
                    Response::PresenceAck { changed: true }
                        | Response::PresenceBatchAck { changed: 1.. }
                        | Response::NotifyBatchAck { changed: 1.. }
                );
                if any_changed {
                    let now = ctx.now();
                    for (addr, cell, present) in &presence_items {
                        // Latency samples: pendings exist only for true
                        // transitions, so redundant items are no-ops here.
                        if *present {
                            if let Some(entered) = self.pending_detection.remove(&(*addr, *cell)) {
                                self.detection_latency
                                    .push(now.saturating_since(entered).as_secs_f64());
                            }
                        } else if let Some(exited) = self.pending_absence.remove(&(*addr, *cell)) {
                            self.absence_latency
                                .push(now.saturating_since(exited).as_secs_f64());
                        }
                    }
                    // Occupancy tracks the server's belief per cell.
                    let mut touched: Vec<usize> =
                        presence_items.iter().map(|&(_, c, _)| c).collect();
                    touched.sort_unstable();
                    touched.dedup();
                    for cell in touched {
                        let n = self.server.db().count_in(cell) as f64;
                        self.occupancy[cell].set(now, n);
                    }
                }
                if let Response::LoginResult { result: Ok(()) } = resp {
                    self.stats.logins_completed += 1;
                }
                // RPC-level session header: the server's incarnation
                // precedes the response so clients can detect restarts.
                let mut with_epoch = crate::wire::Writer::new();
                with_epoch.u32(self.server.epoch());
                let mut payload = with_epoch.into_bytes();
                payload.extend_from_slice(&resp.encode());
                let framed = RpcCodec::encode_response(corr, &payload);
                self.tr.send(
                    ctx,
                    &mut self.lan,
                    SysEvent::Lan,
                    SysEvent::Tr,
                    self.server_host,
                    from,
                    framed,
                );
            }
            RpcFrame::Response { corr, payload, .. } => {
                let Some(&ws) = self.host_to_ws.get(&m.dst.index()) else {
                    return;
                };
                let Some(pending) = self.workstations[ws].pending.remove(&corr) else {
                    return;
                };
                self.stats.rpc_round_trips += 1;
                let mut r = crate::wire::Reader::new(payload);
                let Ok(epoch) = r.u32() else {
                    return;
                };
                if epoch > self.server_epoch_seen {
                    self.server_epoch_seen = epoch;
                    self.on_server_epoch_bump();
                }
                let Ok(resp) = Response::decode(&payload[4..]) else {
                    return;
                };
                self.on_rpc_response(ctx, ws, pending, resp);
            }
        }
    }

    fn on_rpc_response(
        &mut self,
        ctx: &mut Context<SysEvent>,
        ws: usize,
        pending: PendingRpc,
        resp: Response,
    ) {
        let master = self.workstations[ws].master;
        match (pending, resp) {
            (PendingRpc::Presence, Response::PresenceAck { .. }) => {}
            (PendingRpc::Heartbeat, Response::HeartbeatAck) => {}
            (PendingRpc::Login { handheld }, Response::LoginResult { result }) => {
                self.handhelds[handheld].login_in_flight = false;
                // A SessionConflict means the server already holds a live
                // session for this device/user — necessarily an earlier
                // one of ours (addresses are per-handheld), so the binding
                // exists and the handheld is effectively logged in.
                let effectively_ok = matches!(
                    result,
                    Ok(()) | Err(crate::protocol::LoginFailure::SessionConflict)
                );
                if effectively_ok {
                    self.handhelds[handheld].logged_in = true;
                    if let Some(seen) = self.handhelds[handheld].first_seen.take() {
                        self.enrollment_latency
                            .push(ctx.now().saturating_since(seen).as_secs_f64());
                    }
                }
                // Tell the handheld (if the link survived).
                let slave = self.handhelds[handheld].slave;
                if self.bb.slave_connection(slave) == Some(master) {
                    let payload = HandheldMsg::LoginDown { ok: effectively_ok }.encode();
                    let _ = self.bb.send_data(
                        &mut MappedContext::new(ctx, SysEvent::Bb),
                        master,
                        slave,
                        payload,
                        TAG_LOGIN_DOWN,
                    );
                }
            }
            (PendingRpc::Locate { query }, Response::LocateResult(outcome)) => {
                self.queries[query].outcome_ready = Some(outcome.clone());
                let h = self.queries[query].handheld;
                let slave = self.handhelds[h].slave;
                if self.bb.slave_connection(slave) == Some(master) {
                    let payload = HandheldMsg::QueryDown(outcome).encode();
                    let _ = self.bb.send_data(
                        &mut MappedContext::new(ctx, SysEvent::Bb),
                        master,
                        slave,
                        payload,
                        TAG_QUERY_DOWN,
                    );
                } else {
                    // Link dropped while the server was thinking: record
                    // the outcome without handheld delivery.
                    self.queries[query].record.outcome = self.queries[query].outcome_ready.take();
                    self.queries[query].record.answered_at = Some(ctx.now());
                    self.stats.queries_answered += 1;
                    self.handhelds[h].queued_queries.retain(|&qi| qi != query);
                }
            }
            (PendingRpc::History { query }, Response::HistoryResult(outcome)) => {
                self.queries[query].history_ready = Some(outcome.clone());
                let h = self.queries[query].handheld;
                let slave = self.handhelds[h].slave;
                if self.bb.slave_connection(slave) == Some(master) {
                    let payload = HandheldMsg::HistoryDown(outcome).encode();
                    let _ = self.bb.send_data(
                        &mut MappedContext::new(ctx, SysEvent::Bb),
                        master,
                        slave,
                        payload,
                        TAG_HISTORY_DOWN,
                    );
                } else {
                    self.queries[query].record.history_outcome =
                        self.queries[query].history_ready.take();
                    self.queries[query].record.answered_at = Some(ctx.now());
                    self.stats.queries_answered += 1;
                    self.handhelds[h].queued_queries.retain(|&qi| qi != query);
                }
            }
            (PendingRpc::Logout, Response::LogoutResult { .. }) => {}
            _ => {}
        }
    }

    fn on_mob(&mut self, ctx: &mut Context<SysEvent>, ev: MobEvent) {
        self.mob
            .handle(&mut MappedContext::new(ctx, SysEvent::Mob), ev);
        for n in self.mob.drain_notifications() {
            match n {
                MobNotification::CellEntered { walker, room, at } => {
                    let master = self.workstations[room.index()].master;
                    let slave = self.handhelds[walker.index()].slave;
                    let addr = self.handhelds[walker.index()].addr;
                    self.pending_detection
                        .entry((addr, room.index()))
                        .or_insert(at);
                    self.pending_absence.remove(&(addr, room.index()));
                    self.bb.set_in_range(
                        &mut MappedContext::new(ctx, SysEvent::Bb),
                        master,
                        slave,
                        true,
                    );
                }
                MobNotification::CellExited { walker, room, at } => {
                    let master = self.workstations[room.index()].master;
                    let slave = self.handhelds[walker.index()].slave;
                    let addr = self.handhelds[walker.index()].addr;
                    if self
                        .pending_detection
                        .remove(&(addr, room.index()))
                        .is_some()
                    {
                        // Left before the server ever learned of the visit.
                        self.stats.missed_detections += 1;
                    } else if self.server.db().cells_of(addr).contains(&room.index()) {
                        self.pending_absence
                            .entry((addr, room.index()))
                            .or_insert(at);
                    }
                    self.bb.set_in_range(
                        &mut MappedContext::new(ctx, SysEvent::Bb),
                        master,
                        slave,
                        false,
                    );
                }
                MobNotification::Arrived { .. } | MobNotification::RouteDone { .. } => {}
            }
        }
    }

    /// Congestion gain: every crossing at either endpoint adds 1% of an
    /// edge's base weight. The fold is a pure function of the crossing
    /// counters over the snapshotted base weights, so it never compounds
    /// and replays identically for identical mobility histories.
    const CONGESTION_GAIN: f64 = 0.01;

    /// Folds the mobility model's per-cell crossing counters into the
    /// path engine's edge weights. Unchanged weights are no-ops on the
    /// engine (no epoch bump); edges with a down endpoint are skipped.
    fn apply_congestion_weights(&mut self) {
        let entries = &self.mob.stats().per_cell_entries;
        let engine = self.server.path_engine_mut();
        for &(a, b, w0) in &self.base_weights {
            let crossings =
                entries.get(a).copied().unwrap_or(0) + entries.get(b).copied().unwrap_or(0);
            let w = w0 * (1.0 + Self::CONGESTION_GAIN * crossings as f64);
            let _ = engine.set_edge_weight(a, b, w);
        }
    }

    fn on_sweep(&mut self, ctx: &mut Context<SysEvent>, ws: usize) {
        if self.congestion_weights && ws == 0 {
            self.apply_congestion_weights();
        }
        let now = ctx.now();
        let changes = self.workstations[ws].tracker.sweep(now);
        let cell = self.workstations[ws].cell as u32;
        if changes.is_empty() {
            // Quiet sweep: a tiny keepalive still flows so the server can
            // detect dead workstations and the workstation observes the
            // server incarnation (bounded restart-detection delay).
            self.stats.heartbeats_sent += 1;
            self.send_rpc(ctx, ws, Request::Heartbeat { cell }, PendingRpc::Heartbeat);
        } else if self.batch_updates {
            self.stats.presence_updates_sent += changes.len() as u64;
            let req = Request::PresenceBatch {
                cell,
                items: changes.iter().map(|c| (c.addr, c.present)).collect(),
            };
            self.send_rpc(ctx, ws, req, PendingRpc::Presence);
        } else {
            for c in changes {
                let req = Request::Presence {
                    cell,
                    addr: c.addr,
                    present: c.present,
                };
                self.send_rpc(ctx, ws, req, PendingRpc::Presence);
            }
        }
        self.stats.naive_announcements = self
            .workstations
            .iter()
            .map(|w| w.tracker.stats().naive_announcements)
            .sum();
        ctx.schedule_at(now + self.sweep_interval, SysEvent::Sweep { ws });
    }

    /// A new server incarnation was observed (exactly once per restart —
    /// the epoch is tracked system-wide): the server forgot all presence
    /// and sessions. Every workstation re-announces on its next sweep and
    /// every handheld re-authenticates on its next sighting. This runs
    /// *before* the response that carried the epoch is applied, so a
    /// login completed by the new server is never clobbered.
    fn on_server_epoch_bump(&mut self) {
        for ws in &mut self.workstations {
            ws.tracker.reset_reported();
        }
        for h in &mut self.handhelds {
            if h.logged_in {
                h.logged_in = false; // wants_login stays: auto re-login
            }
        }
    }

    /// Queues a user query; if the handheld is already linked the message
    /// goes up immediately, otherwise the next sighting pages it.
    fn enqueue_query(
        &mut self,
        ctx: &mut Context<SysEvent>,
        h: usize,
        user: String,
        target: String,
        kind: QueryKind,
    ) {
        self.stats.queries_issued += 1;
        let qi = self.queries.len();
        self.queries.push(QueryRt {
            record: QueryRecord {
                user,
                target,
                kind,
                issued_at: ctx.now(),
                answered_at: None,
                outcome: None,
                history_outcome: None,
            },
            handheld: h,
            outcome_ready: None,
            history_ready: None,
        });
        self.handhelds[h].queued_queries.push(qi);
        let slave = self.handhelds[h].slave;
        if let Some(master) = self.bb.slave_connection(slave) {
            let (payload, tag) = self.up_message_for(qi);
            let _ = self.bb.send_data(
                &mut MappedContext::new(ctx, SysEvent::Bb),
                master,
                slave,
                payload,
                tag,
            );
        }
    }

    fn on_cmd(&mut self, ctx: &mut Context<SysEvent>, cmd: SysCommand) {
        match cmd {
            SysCommand::Locate { user, target } => {
                let Some(h) = self.handhelds.iter().position(|x| x.name == user) else {
                    return;
                };
                self.enqueue_query(ctx, h, user, target, QueryKind::Locate);
            }
            SysCommand::History {
                user,
                target,
                from_s,
                to_s,
            } => {
                let Some(h) = self.handhelds.iter().position(|x| x.name == user) else {
                    return;
                };
                let kind = QueryKind::History {
                    from_us: SimTime::from_secs(from_s).as_micros(),
                    to_us: SimTime::from_secs(to_s).as_micros(),
                };
                self.enqueue_query(ctx, h, user, target, kind);
            }
            SysCommand::Login { user } => {
                if let Some(h) = self.handhelds.iter().position(|x| x.name == user) {
                    self.handhelds[h].wants_login = true;
                }
            }
            SysCommand::ServerRestart => {
                self.server.restart();
                // Presence beliefs are gone; occupancy drops to zero.
                let now = ctx.now();
                for occ in &mut self.occupancy {
                    occ.set(now, 0.0);
                }
            }
            SysCommand::Logout { user } => {
                let Some(h) = self.handhelds.iter().position(|x| x.name == user) else {
                    return;
                };
                self.handhelds[h].logged_in = false;
                self.handhelds[h].wants_login = false;
                // Relay through the workstation of the handheld's current
                // cell if any, else through workstation 0 (wired action).
                let ws = self
                    .mob
                    .cells_of(self.handhelds[h].walker)
                    .first()
                    .map(|r| r.index())
                    .unwrap_or(0);
                let req = Request::Logout {
                    addr: self.handhelds[h].addr,
                };
                self.send_rpc(ctx, ws, req, PendingRpc::Logout);
            }
        }
    }
}

impl World for BipsSystem {
    type Event = SysEvent;
    fn handle(&mut self, ctx: &mut Context<SysEvent>, event: SysEvent) {
        match event {
            SysEvent::Bb(e) => self.on_bb(ctx, e),
            SysEvent::Lan(e) => self.on_lan(ctx, e),
            SysEvent::Tr(e) => {
                self.tr
                    .handle(ctx, &mut self.lan, SysEvent::Lan, SysEvent::Tr, e);
            }
            SysEvent::Mob(e) => self.on_mob(ctx, e),
            SysEvent::Sweep { ws } => self.on_sweep(ctx, ws),
            SysEvent::Cmd(c) => self.on_cmd(ctx, c),
        }
    }
    fn quiesce(&mut self, ctx: &mut Context<SysEvent>) {
        self.bb.settle(ctx.now());
    }
}

/// Builds a [`BipsSystem`] and its engine.
#[derive(Debug)]
pub struct SystemBuilder {
    config: SystemConfig,
    users: Vec<UserSpec>,
}

impl SystemBuilder {
    /// Adds a mobile user.
    pub fn user(mut self, spec: UserSpec) -> SystemBuilder {
        self.users.push(spec);
        self
    }

    /// Resolves all randomness from `seed`, wires the system and returns
    /// a ready-to-run engine (bootstrap events armed at t = 0).
    ///
    /// # Panics
    ///
    /// Panics if a user references an invalid start room or a duplicate
    /// name is registered.
    pub fn into_engine(self, seed: u64) -> Engine<BipsSystem> {
        let SystemBuilder { config, users } = self;
        let deriver = SeedDeriver::new(seed);
        let mut rng = deriver.rng(u64::MAX);

        // Radio medium: one master per room; handhelds alternate
        // inquiry/page scan like the paper's Table 1 slave.
        let mut bb = Baseband::new(config.medium);
        let mut lan = Lan::new(config.lan);
        let server_host = lan.attach();
        let n_rooms = config.building.num_rooms();
        let mut workstations = Vec::with_capacity(n_rooms);
        let mut host_to_ws = HashMap::new();
        for room in 0..n_rooms {
            let master = bb.add_master(
                MasterConfig::new(BdAddr::new(0x00A0_0000_0000 + room as u64)).duty(config.duty),
                &mut rng,
            );
            let host = lan.attach();
            host_to_ws.insert(host.index(), room);
            workstations.push(WsRuntime {
                master,
                host,
                cell: room,
                tracker: WorkstationTracker::new(config.absence_timeout),
                rpc: RpcCodec::new(),
                pending: HashMap::new(),
            });
        }

        // Users: registry entries + handheld radios + walkers.
        let mut registry = Registry::new();
        let mut mob = MobilityModel::new(config.building.clone());
        let mut handhelds = Vec::with_capacity(users.len());
        for (i, u) in users.iter().enumerate() {
            registry
                .register(&u.name, &u.password, u.rights.clone())
                .expect("unique user names");
            let addr = BdAddr::new(0x0010_0000_0000 + i as u64);
            let slave = bb.add_slave(
                SlaveConfig::new(addr).scan(ScanPattern::alternating()),
                &mut rng,
            );
            let walker = mob.add_walker(
                WalkerConfig::new(bips_mobility::RoomId::new(u.start_room)).mode(u.mode.clone()),
            );
            handhelds.push(HandheldRt {
                slave,
                walker,
                addr,
                name: u.name.clone(),
                password: u.password.clone(),
                logged_in: false,
                wants_login: u.auto_login,
                login_in_flight: false,
                queued_queries: Vec::new(),
                first_seen: None,
            });
        }

        let graph = WsGraph::from_building(&config.building);
        let server = BipsServer::new(registry, &graph);
        let mut base_weights = Vec::with_capacity(graph.num_edges());
        for a in 0..graph.num_nodes() {
            for &(b, w) in graph.edges(a) {
                if a < b {
                    base_weights.push((a, b, w));
                }
            }
        }

        let system = BipsSystem {
            bb,
            bb_notes: Vec::new(),
            lan_deliveries: Vec::new(),
            app_inbox: Vec::new(),
            lan,
            tr: Reliable::new(ReliableConfig::default()),
            mob,
            server,
            server_host,
            workstations,
            handhelds,
            host_to_ws,
            queries: Vec::new(),
            sweep_interval: config.sweep_interval,
            server_epoch_seen: 0,
            batch_updates: config.batch_updates,
            congestion_weights: config.congestion_weights,
            base_weights,
            occupancy: (0..n_rooms)
                .map(|_| desim::stats::TimeWeighted::new(SimTime::ZERO, 0.0))
                .collect(),
            stats: SystemStats::default(),
            pending_detection: HashMap::new(),
            detection_latency: desim::stats::OnlineStats::new(),
            absence_latency: desim::stats::OnlineStats::new(),
            pending_absence: HashMap::new(),
            enrollment_latency: desim::stats::OnlineStats::new(),
        };

        let n_ws = system.workstations.len();
        let sweep = system.sweep_interval;
        let mut engine = Engine::new(system, seed);
        engine.schedule(SimTime::ZERO, SysEvent::Bb(BbEvent::start()));
        engine.schedule(SimTime::ZERO, SysEvent::Mob(MobEvent::start()));
        for ws in 0..n_ws {
            // Stagger sweeps so the server is not hit in bursts.
            let offset =
                SimDuration::from_micros(sweep.as_micros() * ws as u64 / n_ws.max(1) as u64);
            engine.schedule(SimTime::ZERO + sweep + offset, SysEvent::Sweep { ws });
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small two-room building keeps radio simulation cheap.
    fn tiny_building() -> Building {
        let mut b = Building::new();
        let a = b.add_room("left", bips_mobility::Point::new(0.0, 0.0));
        let c = b.add_room("right", bips_mobility::Point::new(30.0, 0.0));
        b.connect(a, c);
        b
    }

    fn fast_config() -> SystemConfig {
        SystemConfig {
            building: tiny_building(),
            duty: DutyCycle::periodic(SimDuration::from_secs(4), SimDuration::from_secs(8)),
            sweep_interval: SimDuration::from_secs(4),
            absence_timeout: SimDuration::from_secs(16),
            ..SystemConfig::default()
        }
    }

    #[test]
    fn stationary_user_gets_logged_in_and_located() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("alice", 0).mode(WalkMode::Stationary))
            .into_engine(1);
        e.run_until(SimTime::from_secs(120));
        let sys = e.world();
        assert!(sys.is_logged_in("alice"), "login pipeline failed");
        assert_eq!(sys.db_cell_of("alice"), Some(0), "wrong cell in DB");
        assert_eq!(sys.stats().logins_completed, 1);
        assert!(sys.stats().presence_updates_sent >= 1);
    }

    #[test]
    fn walking_user_is_tracked_across_cells() {
        let cfg = fast_config();
        let mut e = BipsSystem::builder(cfg)
            .user(UserSpec::new("bob", 0).mode(WalkMode::Loop(vec![
                bips_mobility::RoomId::new(1),
                bips_mobility::RoomId::new(0),
            ])))
            .into_engine(2);
        // Let him walk for a while; the DB must see him in both cells over
        // time.
        let mut cells_seen = std::collections::HashSet::new();
        for step in 1..=40 {
            e.run_until(SimTime::from_secs(step * 15));
            if let Some(c) = e.world().db_cell_of("bob") {
                cells_seen.insert(c);
            }
        }
        assert!(e.world().is_logged_in("bob"));
        assert!(
            cells_seen.contains(&0) && cells_seen.contains(&1),
            "only saw cells {cells_seen:?}"
        );
    }

    #[test]
    fn query_returns_shortest_path() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("alice", 0).mode(WalkMode::Stationary))
            .user(UserSpec::new("bob", 1).mode(WalkMode::Stationary))
            .into_engine(3);
        // Give both time to log in and be located.
        e.run_until(SimTime::from_secs(120));
        assert!(e.world().is_logged_in("alice") && e.world().is_logged_in("bob"));
        e.schedule(SimTime::from_secs(120), SysEvent::locate("alice", "bob"));
        e.run_until(SimTime::from_secs(240));
        let queries = e.world().queries();
        assert_eq!(queries.len(), 1);
        let q = &queries[0];
        assert!(q.answered_at.is_some(), "query never answered: {q:?}");
        match q.outcome.as_ref().expect("outcome") {
            LocateOutcome::Found {
                cell,
                path,
                distance,
            } => {
                assert_eq!(*cell, 1);
                assert_eq!(path, &vec![0, 1]);
                assert_eq!(*distance, 30.0);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(e.world().stats().queries_answered, 1);
    }

    #[test]
    fn update_on_change_beats_naive_reporting() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("alice", 0).mode(WalkMode::Stationary))
            .into_engine(4);
        e.run_until(SimTime::from_secs(600));
        let st = e.world().stats();
        assert!(
            st.presence_updates_sent * 5 < st.naive_announcements,
            "diffing saved little: {} vs naive {}",
            st.presence_updates_sent,
            st.naive_announcements
        );
    }

    #[test]
    fn logout_removes_user_from_db() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("alice", 0).mode(WalkMode::Stationary))
            .into_engine(5);
        e.run_until(SimTime::from_secs(120));
        assert!(e.world().is_logged_in("alice"));
        e.schedule(SimTime::from_secs(120), SysEvent::logout("alice"));
        e.run_until(SimTime::from_secs(125));
        assert!(!e.world().is_logged_in("alice"));
        assert_eq!(e.world().db_cell_of("alice"), None);
    }

    #[test]
    fn accuracy_is_high_for_stationary_users() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("alice", 0).mode(WalkMode::Stationary))
            .user(UserSpec::new("bob", 1).mode(WalkMode::Stationary))
            .into_engine(6);
        e.run_until(SimTime::from_secs(200));
        let acc = e.world().tracking_accuracy();
        assert_eq!(acc, 1.0, "stationary users must be perfectly tracked");
    }

    #[test]
    fn batching_reduces_messages_not_updates() {
        let run = |batch: bool| {
            let cfg = SystemConfig {
                batch_updates: batch,
                ..fast_config()
            };
            let mut e = BipsSystem::builder(cfg)
                .user(UserSpec::new("a", 0).mode(WalkMode::Stationary))
                .user(UserSpec::new("b", 0).mode(WalkMode::Stationary))
                .user(UserSpec::new("c", 0).mode(WalkMode::Stationary))
                .into_engine(8);
            e.run_until(SimTime::from_secs(300));
            e.world().stats()
        };
        let plain = run(false);
        let batched = run(true);
        assert_eq!(plain.presence_updates_sent, plain.presence_messages_sent);
        assert!(batched.presence_messages_sent <= batched.presence_updates_sent);
        assert!(
            batched.presence_updates_sent >= 3,
            "three users must be announced"
        );
        // Same DB endpoint state either way.
        assert!(batched.logins_completed == 3 && plain.logins_completed == 3);
    }

    #[test]
    fn occupancy_converges_to_headcount() {
        let mut e = BipsSystem::builder(fast_config())
            .user(UserSpec::new("a", 0).mode(WalkMode::Stationary))
            .user(UserSpec::new("b", 0).mode(WalkMode::Stationary))
            .into_engine(9);
        let until = SimTime::from_secs(600);
        e.run_until(until);
        let occ = e.world().cell_occupancy(until);
        assert_eq!(occ.len(), 2);
        // Two users camped in cell 0: average approaches 2 (discovery
        // startup drags it slightly below).
        assert!(occ[0] > 1.5, "cell 0 occupancy {}", occ[0]);
        assert!(occ[1] < 0.5, "cell 1 occupancy {}", occ[1]);
    }

    #[test]
    fn deterministic_system_runs() {
        let run = |seed: u64| {
            let mut e = BipsSystem::builder(fast_config())
                .user(UserSpec::new("alice", 0))
                .user(UserSpec::new("bob", 1))
                .into_engine(seed);
            e.run_until(SimTime::from_secs(300));
            (
                e.world().stats(),
                e.world().db_cell_of("alice"),
                e.world().db_cell_of("bob"),
            )
        };
        assert_eq!(run(7), run(7));
    }
}
