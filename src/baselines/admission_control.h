// Utilization-bound admission control over EDF (deadline-theoretic
// baseline, second half).
//
// Classic real-time admission: a request demanding one token every
// `tpot_slo` seconds consumes u = (1 / tpot_slo) / service_tps of the
// replica's decode capacity, where service_tps is the same roofline-derived
// service rate the cluster router seeds its state with
// (DeriveServiceTps, src/hw/budget.h). The controller evaluates every
// request once, when it first becomes visible in the admission queue, and
// keeps the live accepted utilization at or below `utilization_bound`:
// a candidate that fits is accepted; one that does not is either
// SLO-degraded — its tpot_slo loosened to exactly the rate the remaining
// headroom can serve, capped at `max_degrade_factor` times the original —
// or rejected outright (RequestPool::Reject, no service, counted in
// Metrics::rejections). Accepted requests release their utilization when
// they finish.
//
// The controller runs only in tick-native (continuous) mode: boundary mode
// is defined as the legacy drain loop and stays plain EDF. Like VTC, the
// scheduler is stateful — use one instance per run.
#ifndef ADASERVE_SRC_BASELINES_ADMISSION_CONTROL_H_
#define ADASERVE_SRC_BASELINES_ADMISSION_CONTROL_H_

#include <map>

#include "src/baselines/edf.h"

namespace adaserve {

struct AdmissionControlConfig {
  // Fraction of the replica's service rate the accepted set may demand.
  double utilization_bound = 1.0;
  // Allow loosening an unservable candidate's TPOT SLO instead of
  // rejecting it (counted in Metrics::degraded).
  bool allow_degrade = true;
  // A degraded SLO may grow to at most this multiple of the original;
  // candidates needing more are rejected.
  double max_degrade_factor = 4.0;
};

class AdmissionControlScheduler : public EdfScheduler {
 public:
  explicit AdmissionControlScheduler(const AdmissionControlConfig& config = {})
      : config_(config) {}

  std::string_view name() const override { return "EDF+AC"; }

  TickResult Tick(SimTime now, RequestPool& pool, ServingContext& ctx) override;

  // Live accepted utilization (law tests assert it never exceeds the
  // bound). Valid after any tick.
  double utilization() const { return utilization_; }
  // The roofline service rate the controller scores demand against;
  // derived from the serving context's target latency model on first use.
  double service_tps() const { return service_tps_; }
  const AdmissionControlConfig& config() const { return config_; }

 private:
  // Reclaims utilization of accepted requests that have finished, in id
  // order (deterministic floating-point accumulation).
  void Reclaim(const RequestPool& pool);
  // Evaluates every not-yet-seen queued request in id order, accepting,
  // degrading, or rejecting each; advances the seen-watermark.
  void ControlPass(SimTime now, RequestPool& pool, int* rejected, int* degraded);

  AdmissionControlConfig config_;
  double service_tps_ = 0.0;
  // Utilization charged per live accepted request, keyed by id (ordered:
  // reclaim order must be deterministic).
  std::map<RequestId, double> accepted_util_;
  double utilization_ = 0.0;
  // Requests with id below this have been evaluated (accepted, degraded,
  // or rejected); re-queued evicted/paused requests stay accepted and are
  // not re-scored.
  RequestId next_fresh_id_ = 0;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_BASELINES_ADMISSION_CONTROL_H_
