#include "cdsim/workload/trace_source.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace cdsim::workload {

namespace {

/// Stops the run if `src` ended on a read error rather than end of trace.
void throw_if_failed(const TraceSource& src) {
  const std::string err = src.error();
  if (!err.empty()) throw std::runtime_error("trace replay: " + err);
}

/// Pulls `core`'s next record from a private cursor, discarding other
/// cores' records on the way.
bool next_own(TraceSource& src, CoreId core, MemOp& out) {
  TraceRecord rec;
  while (src.next(rec)) {
    if (rec.core == core) {
      out = rec.op;
      return true;
    }
  }
  throw_if_failed(src);
  return false;
}

}  // namespace

StreamFactory capture_factory(StreamFactory inner, TraceSink* sink) {
  CDSIM_ASSERT(sink != nullptr);
  return [inner = std::move(inner), sink](CoreId core,
                                          std::uint64_t seed) -> StreamPtr {
    return std::make_unique<CaptureStream>(inner(core, seed), core, sink);
  };
}

MemOp ReplayStream::next(Cycle /*now*/) {
  if (!tail_) {
    MemOp op;
    if (pull(op)) {
      last_ = op;
      have_last_ = true;
      return op;  // the final recorded op leaves here verbatim
    }
    tail_ = true;
    if (!have_last_) last_ = replay_idle_op(core_);
  }
  MemOp op = last_;
  // Tail repeats are re-stamped independent, mirroring ScriptedWorkload's
  // kRepeatLast contract (see scripted.hpp for why a repeated dependent
  // load would break replay determinism). The idle filler's first return
  // counts as its verbatim appearance — it is already independent.
  if (have_last_) op.dependent = false;
  have_last_ = true;
  return op;
}

ReplayDemux::ReplayDemux(TraceOpener open) : open_(std::move(open)) {
  CDSIM_ASSERT(open_ != nullptr);
  shared_ = open_();
  CDSIM_ASSERT_MSG(shared_ != nullptr, "trace opener failed");
  lanes_.resize(shared_->num_cores());
}

bool ReplayDemux::pop(CoreId core, MemOp& out) {
  CDSIM_ASSERT(core < lanes_.size());
  Lane& lane = lanes_[core];
  if (!lane.queue.empty()) {
    out = lane.queue.front();
    lane.queue.pop_front();
    return true;
  }
  if (lane.detached) return pop_private(lane, core, out);
  TraceRecord rec;
  while (!shared_done_) {
    if (!shared_->next(rec)) {
      shared_done_ = true;
      throw_if_failed(*shared_);
      break;
    }
    const std::uint64_t index = pulled_++;
    if (rec.core == core) {  // lock-step fast path: nothing queued
      out = rec.op;
      return true;
    }
    park(rec, index);
  }
  return false;
}

void ReplayDemux::park(const TraceRecord& rec, std::uint64_t index) {
  CDSIM_ASSERT_MSG(rec.core < lanes_.size(),
                   "trace record names a core outside the trace header");
  Lane& lane = lanes_[rec.core];
  if (lane.detached) return;  // its private cursor will read this record
  if (lane.queue.size() == kReplayQueueCap) {
    lane.detached = true;
    lane.resume_at = index;
    return;
  }
  lane.queue.push_back(rec.op);
  high_water_ = std::max(high_water_, lane.queue.size());
}

bool ReplayDemux::pop_private(Lane& lane, CoreId core, MemOp& out) {
  if (lane.own == nullptr) {
    lane.own = open_();
    if (lane.own == nullptr) {
      throw std::runtime_error("trace replay: reopening the trace failed");
    }
    if (!lane.own->skip(lane.resume_at)) {
      throw_if_failed(*lane.own);
      throw std::runtime_error(
          "trace replay: reopened trace ends before record " +
          std::to_string(lane.resume_at));
    }
  }
  return next_own(*lane.own, core, out);
}

bool FilteredReplayStream::pull(MemOp& out) {
  return next_own(*source_, core(), out);
}

StreamFactory streaming_replay_factory(TraceOpener open) {
  CDSIM_ASSERT(open != nullptr);
  // The demux of the current pass plus the last core handed out. The
  // streams own the demux; a weak reference lets it die with its system.
  struct Pass {
    std::weak_ptr<ReplayDemux> demux;
    CoreId prev_core = 0;
  };
  auto pass = std::make_shared<Pass>();
  return [open = std::move(open), pass](CoreId core,
                                        std::uint64_t /*seed*/) -> StreamPtr {
    std::shared_ptr<ReplayDemux> demux = pass->demux.lock();
    if (demux == nullptr || core <= pass->prev_core) {
      demux = std::make_shared<ReplayDemux>(open);
      pass->demux = demux;
    }
    pass->prev_core = core;
    CDSIM_ASSERT_MSG(core < demux->num_cores(),
                     "replay on more cores than the trace recorded");
    return std::make_unique<DemuxReplayStream>(std::move(demux), core);
  };
}

}  // namespace cdsim::workload
