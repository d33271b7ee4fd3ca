//===- support/FaultInject.h - Deterministic fault injection --------------==//
///
/// \file
/// Deterministic fault-injection harness for the chaos soak and the
/// resilience tests. Compiled to nothing unless GAIA_FAULT_INJECT is
/// defined (the `chaos` CI job builds -DGAIA_FAULT_INJECT=ON); in
/// production builds every probe macro expands to `((void)0)` and the
/// library carries no injection code at all.
///
/// Probes sit on the hot internal seams where a real defect would
/// surface — op-cache lookup, graph normalization, interning, node
/// allocation — and throw a synthetic exception with a small
/// per-probe probability. The containment guard in the serving runtime
/// (runContainedJob, runtime/Resilience.h) must convert every such throw
/// into a structured per-job failure; the chaos soak proves it does at
/// scale.
///
/// Determinism: fault decisions come from a thread-local splitmix64
/// stream re-seeded at the start of every job attempt from
/// (global seed, admission order, attempt). The fault pattern therefore
/// depends only on the job mix and the seed — never on thread
/// scheduling — so a failing soak replays exactly under a debugger,
/// and a retry (attempt+1) sees a fresh stream, which makes injected
/// faults behave like transient errors and exercises the retry ladder.
/// Code that runs outside a JobScope (warm-up, oracle runs) has a
/// disarmed stream and never faults.
///
/// Besides throwing faults, the harness can *stall*: sleep at a probe
/// point for a configured wall-clock time without polling anything.
/// This deliberately models the pathology cooperative cancellation
/// cannot handle — a job wedged *between* poll points — and exists to
/// exercise the AnalysisService watchdog's cancel → poison → replace
/// escalation (a stall ignores CancelSignal by construction; only after
/// it ends does the job reach its next poll and unwind). Stall decisions
/// draw from the same per-job deterministic stream as faults.
///
/// Env knobs (read once, first use; configure() overrides for tests):
///   GAIA_FAULT_P        fault probability per probe hit (default 0)
///   GAIA_FAULT_SEED     global seed (default 1)
///   GAIA_FAULT_PROBES   comma list to arm: opcache,normalize,intern,alloc
///                       (default: all)
///   GAIA_FAULT_STALL_P  stall probability per probe hit (default 0)
///   GAIA_FAULT_STALL_MS stall duration in milliseconds (default 200)
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_FAULTINJECT_H
#define GAIA_SUPPORT_FAULTINJECT_H

#include <cstdint>
#include <stdexcept>

namespace gaia::faultinject {

enum class Probe : uint8_t {
  OpCacheLookup = 0,
  Normalize = 1,
  Intern = 2,
  Alloc = 3,
};
inline constexpr unsigned NumProbes = 4;

/// The synthetic failure thrown by every probe except Alloc (which
/// throws std::bad_alloc so the containment guard is exercised against
/// the same type a real allocation failure would present).
struct InjectedFault : std::runtime_error {
  explicit InjectedFault(const char *What) : std::runtime_error(What) {}
};

#ifdef GAIA_FAULT_INJECT

/// Test override for the env knobs. Probability <= 0 disarms globally.
/// ProbeMask bit i arms Probe(i); ~0u arms all.
void configure(double Probability, uint64_t Seed, uint32_t ProbeMask = ~0u);

/// Test override for the stall knobs. Probability <= 0 (or Millis == 0)
/// disarms stalls; faults configured via configure() are independent.
void configureStall(double Probability, uint32_t Millis);

/// Arms the calling thread's fault stream for one job attempt. The
/// stream is seeded from (global seed, Salt) so the fault pattern is a
/// pure function of the job identity, not of which worker ran it.
/// Disarms (and snapshots the fire count) on destruction.
class JobScope {
public:
  explicit JobScope(uint64_t Salt);
  ~JobScope();
  JobScope(const JobScope &) = delete;
  JobScope &operator=(const JobScope &) = delete;

  /// Faults fired on this thread since the scope opened.
  uint64_t fires() const;

private:
  uint64_t FiresAtEntry;
};

/// Probe body; returns true (and records the fire) when a fault should
/// be raised at this hit. Split from raise() so the macro stays cheap.
bool shouldFire(Probe P);

/// Throws InjectedFault (or std::bad_alloc for Probe::Alloc).
[[noreturn]] void raise(Probe P);

/// Stall body: sleeps the configured duration when the per-job stream
/// says this hit stalls. Returns without polling any cancellation —
/// that blindness is the scenario under test.
void maybeStall(Probe P);

/// Process-wide fire counter (all threads, all jobs); for soak stats.
uint64_t totalFires();

/// Process-wide stall counter.
uint64_t totalStalls();

#define GAIA_FAULT_POINT(P)                                                    \
  do {                                                                         \
    ::gaia::faultinject::maybeStall(::gaia::faultinject::Probe::P);            \
    if (::gaia::faultinject::shouldFire(::gaia::faultinject::Probe::P))        \
      ::gaia::faultinject::raise(::gaia::faultinject::Probe::P);               \
  } while (0)

#else // !GAIA_FAULT_INJECT

#define GAIA_FAULT_POINT(P) ((void)0)

#endif // GAIA_FAULT_INJECT

} // namespace gaia::faultinject

#endif // GAIA_SUPPORT_FAULTINJECT_H
