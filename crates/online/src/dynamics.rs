//! Arrival/departure dynamics — an *extension* beyond the paper.
//!
//! The paper's online model admits requests that hold their resources
//! forever. Real multicast sessions (conferences, streams) end; this
//! module replays a timed workload where each admitted session releases
//! its allocation at its departure time, so long simulations reach a
//! steady state instead of inevitable saturation. The admission
//! algorithms themselves are unchanged — any [`OnlineAlgorithm`] plugs
//! in — and so is the loop: [`run_dynamic`] and
//! [`run_online`](crate::run_online) are one replay, differing only in
//! the order and departure times they offer.

use crate::simulation::replay;
use crate::{OnlineAlgorithm, SimulationResult};
use sdn::{Allocation, MulticastRequest, RequestId, Sdn, SdnError};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A request with an arrival time and a holding duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    /// The request itself.
    pub request: MulticastRequest,
    /// Arrival time (arbitrary monotone units).
    pub arrival: f64,
    /// How long an admitted session holds its resources.
    pub duration: f64,
}

impl TimedRequest {
    /// Creates a timed request.
    ///
    /// # Panics
    ///
    /// Panics unless `arrival >= 0` and `duration > 0` are finite; use
    /// [`TimedRequest::try_new`] for untrusted timing data.
    #[must_use]
    pub fn new(request: MulticastRequest, arrival: f64, duration: f64) -> Self {
        Self::try_new(request, arrival, duration).unwrap_or_else(|e| {
            // lint:allow(P1): documented panic contract; try_new is the fallible path
            panic!("invariant violated: timed workloads are well-formed, but {e}")
        })
    }

    /// Fallible constructor for timing data from untrusted input.
    ///
    /// # Errors
    ///
    /// [`SdnError::InfeasibleRequest`] unless `arrival >= 0` and
    /// `duration > 0` are finite.
    pub fn try_new(
        request: MulticastRequest,
        arrival: f64,
        duration: f64,
    ) -> Result<Self, SdnError> {
        if !arrival.is_finite() || arrival < 0.0 {
            return Err(SdnError::InfeasibleRequest {
                reason: format!("bad arrival {arrival}"),
            });
        }
        if !duration.is_finite() || duration <= 0.0 {
            return Err(SdnError::InfeasibleRequest {
                reason: format!("bad duration {duration}"),
            });
        }
        Ok(TimedRequest {
            request,
            arrival,
            duration,
        })
    }
}

/// One live session in an [`ActiveSessions`] table.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveSession<P> {
    /// When the session releases its resources. `f64::INFINITY` means
    /// only an explicit [`ActiveSessions::depart`] ends it.
    pub departure: f64,
    /// The allocation it holds in the network ledger.
    pub allocation: Allocation,
    /// What the caller keeps with the session (the engine keeps its
    /// request and tree; the online replay keeps nothing).
    pub payload: P,
}

/// The table of live sessions, keyed by request id: each entry's
/// departure time, ledger allocation and caller payload.
///
/// Every way a session leaves goes through this table, so it alone
/// counts departures (`sessions_departed`), keeps the `active_sessions`
/// gauge, and guards against double release: a departure for an id that
/// holds nothing is a counted no-op, never a second release.
#[derive(Debug, Clone)]
pub struct ActiveSessions<P = ()> {
    sessions: BTreeMap<RequestId, ActiveSession<P>>,
    double_release_count: u64,
}

impl<P> Default for ActiveSessions<P> {
    fn default() -> Self {
        ActiveSessions {
            sessions: BTreeMap::new(),
            double_release_count: 0,
        }
    }
}

impl ActiveSessions {
    /// An empty table without payloads.
    #[must_use]
    pub fn new() -> Self {
        ActiveSessions::default()
    }

    /// Records an admitted session holding `alloc` until `departure`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id, see [`ActiveSessions::insert_with`].
    pub fn insert(&mut self, id: RequestId, departure: f64, alloc: Allocation) {
        self.insert_with(id, departure, alloc, ());
    }
}

impl<P> ActiveSessions<P> {
    /// Number of sessions currently holding resources.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no session is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// `true` when `id` is active.
    #[must_use]
    pub fn contains(&self, id: RequestId) -> bool {
        self.sessions.contains_key(&id)
    }

    /// The live session `id`, if any.
    #[must_use]
    pub fn get(&self, id: RequestId) -> Option<&ActiveSession<P>> {
        self.sessions.get(&id)
    }

    /// The live session `id` for in-place updates. A caller that swaps
    /// the allocation keeps the ledger in step itself.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut ActiveSession<P>> {
        self.sessions.get_mut(&id)
    }

    /// Live sessions in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &ActiveSession<P>)> {
        self.sessions.iter().map(|(&id, s)| (id, s))
    }

    /// How many departures hit a session that no longer held resources
    /// (the double-release guard fired).
    #[must_use]
    pub fn double_release_count(&self) -> u64 {
        self.double_release_count
    }

    /// Records a session holding `allocation` (already charged to the
    /// ledger) until `departure`, with the caller's `payload`.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate id — two live sessions must never share one
    /// (the second would silently shadow the first's allocation).
    pub fn insert_with(
        &mut self,
        id: RequestId,
        departure: f64,
        allocation: Allocation,
        payload: P,
    ) {
        let prev = self.sessions.insert(
            id,
            ActiveSession {
                departure,
                allocation,
                payload,
            },
        );
        assert!(
            prev.is_none(),
            "invariant violated: session {id} was already active"
        );
        self.set_gauge();
    }

    /// Departs `id` now, releasing its allocation, and returns the
    /// session. An unknown id — already departed, or torn down by a
    /// repair engine — is a guarded no-op returning `None`, surfaced
    /// through the telemetry registry (an `UnknownDeparture` event plus
    /// the shared `double_release` counter) rather than stderr.
    ///
    /// # Panics
    ///
    /// Panics if the ledger refuses the release (accounting bug).
    pub fn depart(&mut self, sdn: &mut Sdn, id: RequestId) -> Option<ActiveSession<P>> {
        let Some(session) = self.detach(sdn, id) else {
            self.double_release_count += 1;
            telemetry::hit(telemetry::Counter::DoubleRelease);
            telemetry::record(telemetry::Event::UnknownDeparture { request: id.0 });
            return None;
        };
        telemetry::hit(telemetry::Counter::SessionsDeparted);
        Some(session)
    }

    /// Removes `id` and releases its allocation without counting a
    /// departure: the caller carries the session on elsewhere (a repair
    /// engine replans it). `None` when `id` is not live.
    ///
    /// # Panics
    ///
    /// Panics if the ledger refuses the release (accounting bug).
    pub fn detach(&mut self, sdn: &mut Sdn, id: RequestId) -> Option<ActiveSession<P>> {
        let session = self.sessions.remove(&id)?;
        release(sdn, &session.allocation);
        self.set_gauge();
        Some(session)
    }

    /// Ids of the sessions whose departure time is `<= now`, ascending.
    #[must_use]
    pub fn due(&self, now: f64) -> Vec<RequestId> {
        self.sessions
            .iter()
            .filter(|(_, s)| s.departure <= now)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Departs every session whose departure time is `<= now`, in
    /// ascending id order (the ledger's float sums depend on that
    /// order). Returns how many departed.
    ///
    /// # Panics
    ///
    /// Panics if the ledger refuses a release (accounting bug).
    pub fn release_due(&mut self, sdn: &mut Sdn, now: f64) -> usize {
        let before = self.sessions.len();
        // `retain` visits entries in ascending key order.
        self.sessions.retain(|_, s| {
            let due = s.departure <= now;
            if due {
                release(sdn, &s.allocation);
            }
            !due
        });
        let departed = before - self.sessions.len();
        if departed > 0 {
            telemetry::add(telemetry::Counter::SessionsDeparted, departed as u64);
            self.set_gauge();
        }
        departed
    }

    fn set_gauge(&self) {
        telemetry::gauge_set(telemetry::Gauge::ActiveSessions, self.sessions.len() as u64);
    }
}

fn release(sdn: &mut Sdn, allocation: &Allocation) {
    sdn.release(allocation).expect("release a live session"); // lint:allow(P1): the session allocation was applied, so release balances
}

/// Replays a timed workload: requests are offered in arrival order, and
/// every admitted session's allocation is released once its departure
/// time is at or before the current arrival instant. A session departing
/// *exactly* when a request arrives is released first, so its capacity is
/// available to that arrival — the same `dep <= now` semantic as
/// [`ActiveSessions::release_due`]. `requests` need not be pre-sorted;
/// the sort is stable, so equal arrivals keep their slice order. This is
/// the one online replay of [`run_online`](crate::run_online), with each
/// session departing at `arrival + duration`.
///
/// # Panics
///
/// If the algorithm proposes a tree that does not fit the current
/// residual capacities (contract violation), or if the ledger at the end
/// disagrees with the live sessions (accounting bug; `sdn` must start
/// without load).
pub fn run_dynamic<A: OnlineAlgorithm + ?Sized>(
    sdn: &mut Sdn,
    algorithm: &mut A,
    requests: &[TimedRequest],
) -> SimulationResult {
    let mut order: Vec<&TimedRequest> = requests.iter().collect();
    // Arrivals are validated finite at construction, so no pair is unordered.
    order.sort_by(|a, b| a.arrival.partial_cmp(&b.arrival).unwrap_or(Ordering::Equal));
    replay(
        sdn,
        algorithm,
        order
            .into_iter()
            .map(|t| (&t.request, t.arrival, t.arrival + t.duration)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmpPricing, LsChainAdmission, OnlineCp, OnlineCpMulti, ShortestPathBaseline};
    use netgraph::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdn::{NfvType, SdnBuilder, ServiceChain};
    use topology::{annotate, place_servers_random, AnnotationParams, Waxman};
    use workload::RequestGenerator;

    fn tiny_net() -> (Sdn, Vec<NodeId>) {
        let mut b = SdnBuilder::new();
        let s = b.add_switch();
        let v = b.add_server(2_000.0, 1.0);
        let d = b.add_switch();
        b.add_link(s, v, 250.0, 1.0).unwrap();
        b.add_link(v, d, 250.0, 1.0).unwrap();
        (b.build().unwrap(), vec![s, v, d])
    }

    fn timed(nodes: &[NodeId], id: u64, arrival: f64, duration: f64) -> TimedRequest {
        TimedRequest::new(
            MulticastRequest::new(
                RequestId(id),
                nodes[0],
                vec![nodes[2]],
                100.0,
                ServiceChain::new(vec![NfvType::Firewall]),
            ),
            arrival,
            duration,
        )
    }

    #[test]
    fn departures_free_capacity() {
        let (mut sdn, nodes) = tiny_net();
        // Links fit 2 concurrent sessions. Three overlapping sessions:
        // the third is rejected. With departures, a fourth arriving after
        // the first two left is admitted again.
        let requests = vec![
            timed(&nodes, 0, 0.0, 10.0),
            timed(&nodes, 1, 1.0, 10.0),
            timed(&nodes, 2, 2.0, 10.0),  // rejected: both slots busy
            timed(&nodes, 3, 20.0, 10.0), // admitted: slots free again
        ];
        let r = run_dynamic(&mut sdn, &mut ShortestPathBaseline::new(), &requests);
        assert_eq!(r.admitted, 3);
        assert_eq!(r.rejected, 1);
        assert_eq!(
            r.admitted_ids().collect::<Vec<_>>(),
            vec![RequestId(0), RequestId(1), RequestId(3)]
        );
        assert_eq!(r.peak_concurrent, 2);
        assert!((r.admission_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn without_departures_it_matches_static_behaviour() {
        // Holding times far beyond the last arrival: nothing departs, so
        // the timed replay must make run_online's decisions bit for bit,
        // for every policy, and leave the same ledger.
        let mut rng = StdRng::seed_from_u64(17);
        let (g, _) = Waxman::new(40).generate(&mut rng);
        let servers = place_servers_random(&g, 0.1, &mut rng);
        let base = annotate(&g, &servers, &AnnotationParams::default(), &mut rng).unwrap();
        let requests = RequestGenerator::new(40).generate_batch(150, &mut rng);
        let timed: Vec<TimedRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| TimedRequest::new(r.clone(), i as f64, 1e9))
            .collect();
        let policies: [fn() -> Box<dyn OnlineAlgorithm>; 5] = [
            || Box::new(OnlineCp::new()),
            || Box::new(OnlineCpMulti::new(2)),
            || Box::new(ShortestPathBaseline::new()),
            || Box::new(LsChainAdmission::new()),
            || Box::new(EmpPricing::new()),
        ];
        for make in policies {
            let mut fixed_net = base.clone();
            let fixed = crate::run_online(&mut fixed_net, make().as_mut(), &requests);
            let mut dynamic_net = base.clone();
            let dynamic = run_dynamic(&mut dynamic_net, make().as_mut(), &timed);
            let name = fixed.algorithm;
            assert!(fixed.admitted > 0 && fixed.rejected > 0, "{name}");
            assert_eq!(dynamic.algorithm, name);
            assert_eq!(dynamic.outcomes, fixed.outcomes, "{name}");
            assert_eq!(dynamic.admitted, fixed.admitted, "{name}");
            assert_eq!(dynamic.total_cost.to_bits(), fixed.total_cost.to_bits());
            let utilization = |r: &SimulationResult| {
                [
                    r.mean_link_utilization,
                    r.max_link_utilization,
                    r.mean_server_utilization,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(utilization(&dynamic), utilization(&fixed), "{name}");
            assert_eq!(dynamic.peak_concurrent, fixed.admitted, "{name}");
            assert_eq!(fixed.peak_concurrent, fixed.admitted, "{name}");
            assert_eq!(dynamic_net, fixed_net, "{name}");
        }
    }

    #[test]
    fn unsorted_input_is_sorted_by_arrival() {
        let (mut sdn, nodes) = tiny_net();
        let requests = vec![timed(&nodes, 1, 20.0, 5.0), timed(&nodes, 0, 0.0, 5.0)];
        let r = run_dynamic(&mut sdn, &mut OnlineCp::new(), &requests);
        assert_eq!(
            r.admitted_ids().collect::<Vec<_>>(),
            vec![RequestId(0), RequestId(1)]
        );
        assert_eq!(r.peak_concurrent, 1);
    }

    #[test]
    fn network_returns_to_idle_after_all_departures() {
        let (mut sdn, nodes) = tiny_net();
        let fresh = sdn.clone();
        let requests = vec![timed(&nodes, 0, 0.0, 1.0), timed(&nodes, 1, 5.0, 1.0)];
        let _ = run_dynamic(&mut sdn, &mut OnlineCp::new(), &requests);
        // The second arrival releases the first session; release the
        // second manually via reset check: residuals must only differ by
        // the still-active session.
        sdn.reset();
        assert_eq!(sdn, fresh);
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn zero_duration_rejected() {
        let (_, nodes) = tiny_net();
        let _ = timed(&nodes, 0, 0.0, 0.0);
    }

    #[test]
    fn try_new_rejects_instead_of_panicking() {
        let (_, nodes) = tiny_net();
        let good = timed(&nodes, 0, 0.0, 1.0);
        assert!(TimedRequest::try_new(good.request.clone(), -1.0, 5.0).is_err());
        assert!(TimedRequest::try_new(good.request.clone(), 0.0, 0.0).is_err());
        assert!(TimedRequest::try_new(good.request.clone(), f64::NAN, 5.0).is_err());
        assert!(TimedRequest::try_new(good.request.clone(), 0.0, f64::INFINITY).is_err());
        let ok = TimedRequest::try_new(good.request, 3.0, 5.0).unwrap();
        assert_eq!(ok.arrival, 3.0);
    }

    #[test]
    fn departure_after_external_teardown_is_a_guarded_no_op() {
        // A repair engine (or any external actor) detached the session
        // and released its resources; the scheduled departure later fires
        // for the same id. It must not release twice.
        let (mut sdn, nodes) = tiny_net();
        let fresh = sdn.clone();
        let tr = timed(&nodes, 7, 0.0, 10.0);
        let tree = ShortestPathBaseline::new()
            .admit(&sdn, &tr.request)
            .unwrap();
        let alloc = tree.allocation(&tr.request);
        sdn.allocate(&alloc).unwrap();
        let mut active = ActiveSessions::new();
        active.insert(RequestId(7), 10.0, alloc.clone());

        // External teardown: released, but not counted as a departure.
        let detached = active.detach(&mut sdn, RequestId(7)).unwrap();
        assert_eq!(detached.allocation, alloc);
        assert_eq!(sdn, fresh);

        // The departure is now a no-op: no second release, guard counted.
        assert!(active.depart(&mut sdn, RequestId(7)).is_none());
        assert_eq!(active.double_release_count(), 1);
        assert_eq!(sdn, fresh);

        // Same for a time-driven departure: nothing is due.
        assert_eq!(active.release_due(&mut sdn, 1e9), 0);
        assert_eq!(sdn, fresh);
    }

    #[test]
    fn double_depart_is_a_guarded_no_op() {
        let (mut sdn, nodes) = tiny_net();
        let fresh = sdn.clone();
        let tr = timed(&nodes, 0, 0.0, 10.0);
        let tree = ShortestPathBaseline::new()
            .admit(&sdn, &tr.request)
            .unwrap();
        let alloc = tree.allocation(&tr.request);
        sdn.allocate(&alloc).unwrap();
        let mut active = ActiveSessions::new();
        active.insert(RequestId(0), 10.0, alloc);
        assert!(active.depart(&mut sdn, RequestId(0)).is_some());
        assert!(active.depart(&mut sdn, RequestId(0)).is_none());
        assert_eq!(active.double_release_count(), 1);
        assert_eq!(sdn, fresh);
    }

    #[test]
    fn release_due_frees_sessions_in_id_order() {
        // Like tiny_net, but with room for three concurrent sessions.
        let (mut sdn, nodes) = {
            let mut b = SdnBuilder::new();
            let s = b.add_switch();
            let v = b.add_server(20_000.0, 1.0);
            let d = b.add_switch();
            b.add_link(s, v, 1000.0, 1.0).unwrap();
            b.add_link(v, d, 1000.0, 1.0).unwrap();
            (b.build().unwrap(), vec![s, v, d])
        };
        let fresh = sdn.clone();
        let mut active = ActiveSessions::new();
        for id in [3u64, 1, 2] {
            let tr = timed(&nodes, id, 0.0, 10.0);
            // Admissions on separate Sdn clones so all three fit.
            let tree = ShortestPathBaseline::new()
                .admit(&fresh, &tr.request)
                .unwrap();
            let alloc = tree.allocation(&tr.request);
            sdn.allocate(&alloc).unwrap();
            let departure = if id == 2 { 50.0 } else { 10.0 };
            active.insert(tr.request.id, departure, alloc);
        }
        assert_eq!(active.due(10.0), vec![RequestId(1), RequestId(3)]);
        assert_eq!(active.release_due(&mut sdn, 10.0), 2);
        assert_eq!(
            active.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            vec![RequestId(2)]
        );
        assert_eq!(active.release_due(&mut sdn, 100.0), 1);
        assert_eq!(active.double_release_count(), 0);
        assert_eq!(sdn, fresh);
    }

    #[test]
    fn coinciding_departure_is_released_before_the_arrival() {
        // Pins the departure-tie semantic: `dep <= now`. Both link slots
        // are busy until exactly t = 10; a third request arriving at
        // exactly 10.0 fits only if the coinciding departures are
        // released first. Under a strict `dep < now` reading it would be
        // rejected.
        let (mut sdn, nodes) = tiny_net();
        let requests = vec![
            timed(&nodes, 0, 0.0, 10.0), // departs exactly at 10.0
            timed(&nodes, 1, 0.0, 10.0), // departs exactly at 10.0
            timed(&nodes, 2, 10.0, 1.0), // fits only post-release
        ];
        let r = run_dynamic(&mut sdn, &mut ShortestPathBaseline::new(), &requests);
        assert_eq!(r.admitted, 3);
        assert_eq!(r.rejected, 0);
        assert_eq!(r.peak_concurrent, 2);
    }

    #[test]
    fn max_duration_sessions_never_release_at_finite_times() {
        // duration = f64::MAX with a nonzero arrival: the departure time
        // saturates at f64::MAX (still finite), so no realistic clock
        // ever releases it — only an explicit drain at f64::MAX does.
        let (mut sdn, nodes) = tiny_net();
        let fresh = sdn.clone();
        let tr = timed(&nodes, 0, 5.0, f64::MAX);
        assert_eq!(tr.arrival + tr.duration, f64::MAX);
        let tree = ShortestPathBaseline::new()
            .admit(&sdn, &tr.request)
            .unwrap();
        let alloc = tree.allocation(&tr.request);
        sdn.allocate(&alloc).unwrap();
        let mut active = ActiveSessions::new();
        active.insert(tr.request.id, tr.arrival + tr.duration, alloc);

        assert_eq!(active.release_due(&mut sdn, 1e300), 0);
        assert!(active.contains(tr.request.id));
        assert_ne!(sdn, fresh);

        // Draining at the saturated departure instant balances the ledger.
        assert_eq!(active.release_due(&mut sdn, f64::MAX), 1);
        assert!(active.is_empty());
        assert_eq!(sdn, fresh);
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_active_id_panics() {
        let mut active = ActiveSessions::new();
        active.insert(RequestId(1), 1.0, Allocation::new(RequestId(1)));
        active.insert(RequestId(1), 2.0, Allocation::new(RequestId(1)));
    }
}
