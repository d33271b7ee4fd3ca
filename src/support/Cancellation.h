//===- support/Cancellation.h - Cooperative job cancellation --------------==//
///
/// \file
/// The cooperative cancellation machinery of the fault-tolerant serving
/// runtime. A job is bounded two ways:
///
///   - a *deadline* (AnalyzerOptions::DeadlineMs): a steady-clock wall
///     time after which the job must stop, regardless of how many
///     fixpoint rounds its budget would still allow;
///   - a *cancellation token* (AnalyzerOptions::Cancel): an atomic flag
///     a client (or the batch driver) flips to withdraw a request that
///     is no longer wanted.
///
/// Both are folded into one CancelSignal the analyzer threads through
/// the engine's fixpoint budget checkpoints and the widening transform
/// loop. Polling a tripped signal throws CancelledError, which unwinds
/// the analysis stack — every structure the job touched is per-job RAII
/// state (its engine, its private delta cache, its scratch buffers), and
/// the shared frozen tier is immutable, so the unwind leaves no trace in
/// any cross-job state. core/Analyzer.cpp catches the unwind and turns
/// it into a structured AnalysisResult (Ok = false, FailKind::Deadline
/// or FailKind::Cancelled).
///
/// CancelledError deliberately does not derive from std::exception:
/// cancellation is control flow with exactly one handler (the analyzer
/// facade), and a generic catch (const std::exception &) anywhere
/// below it must not be able to swallow the unwind.
///
//===----------------------------------------------------------------------===//

#ifndef GAIA_SUPPORT_CANCELLATION_H
#define GAIA_SUPPORT_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <memory>

namespace gaia {

/// Shared cancellation flag. One token may be watched by any number of
/// concurrent jobs (the batch shape: one token per request wave);
/// cancel() is safe from any thread. A token made with a parent also
/// reads as cancelled once the parent is: the service gives each
/// request its own token under the caller's wave token, so either side
/// can withdraw the job.
class CancelToken {
public:
  CancelToken() = default;
  explicit CancelToken(std::shared_ptr<const CancelToken> Parent)
      : Parent(std::move(Parent)) {}

  void cancel() { Flag.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return Flag.load(std::memory_order_relaxed) ||
           (Parent && Parent->cancelled());
  }

private:
  std::atomic<bool> Flag{false};
  const std::shared_ptr<const CancelToken> Parent;
};

/// Thrown by CancelSignal::poll() when the signal has tripped. Plain
/// struct on purpose — see the file comment.
struct CancelledError {
  bool DeadlineExpired = false; ///< false: the token was cancelled
};

/// One job's combined stop condition: optional token plus optional
/// deadline. Owned by the analyzer for the duration of one analysis and
/// handed to the engine/widening by raw pointer (EngineOptions::Cancel,
/// WideningOptions::Cancel); never shared across jobs.
class CancelSignal {
public:
  using Clock = std::chrono::steady_clock;

  void armToken(std::shared_ptr<const CancelToken> T) {
    Token = std::move(T);
  }
  void armDeadline(Clock::time_point D) {
    Deadline = D;
    HasDeadline = true;
  }

  bool armed() const { return Token != nullptr || HasDeadline; }

  /// Throws CancelledError if the token tripped or the deadline passed.
  /// The token is checked first: an explicit cancellation reports as
  /// Cancelled even if the deadline has also expired by the time the
  /// job polls.
  void poll() const {
    if (Token && Token->cancelled())
      throw CancelledError{false};
    if (HasDeadline && Clock::now() >= Deadline)
      throw CancelledError{true};
  }

private:
  std::shared_ptr<const CancelToken> Token;
  Clock::time_point Deadline{};
  bool HasDeadline = false;
};

} // namespace gaia

#endif // GAIA_SUPPORT_CANCELLATION_H
