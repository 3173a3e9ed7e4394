#include "cdsim/noc/directory_mesh.hpp"

#include <bit>
#include <utility>

#include "cdsim/common/host_timer.hpp"

namespace cdsim::noc {

using coherence::BusTxKind;
using coherence::MesiState;

DirectoryMesh::DirectoryMesh(EventQueue& eq, const DirectoryMeshConfig& cfg,
                             mem::MemoryController& mem,
                             std::uint32_t num_cores)
    : eq_(eq),
      cfg_(cfg),
      mem_(mem),
      noc_(eq, cfg.noc, mesh_dims(num_cores).width,
           mesh_dims(num_cores).height),
      dir_(num_cores) {
  CDSIM_ASSERT(cfg_.mem_tile < noc_.num_tiles());
  CDSIM_ASSERT(cfg_.home_interleave_bytes >= 1);
  bank_free_.assign(noc_.num_tiles(), 0);
}

void DirectoryMesh::attach(Snooper* s) {
  CDSIM_ASSERT(s != nullptr);
  CDSIM_ASSERT_MSG(snoopers_.size() < noc_.num_tiles(),
                   "one agent per mesh tile");
  snoopers_.push_back(s);
}

std::uint32_t DirectoryMesh::alloc_tx(Tx&& tx) {
  if (tx_free_.empty()) {
    tx_pool_.push_back(std::move(tx));
    return static_cast<TxId>(tx_pool_.size() - 1);
  }
  const TxId id = tx_free_.back();
  tx_free_.pop_back();
  tx_pool_[id] = std::move(tx);
  return id;
}

void DirectoryMesh::free_tx(TxId id) {
  Tx& t = tx_pool_[id];
  t.hooks = RequestHooks{};  // drop hook captures now, not at slot reuse
  t.next = kNoTx;
  tx_free_.push_back(id);
}

void DirectoryMesh::request(BusTxKind kind, Addr line_addr, CoreId requester,
                            std::uint32_t bytes, RequestHooks hooks) {
  CDSIM_ASSERT(requester < snoopers_.size());
  const TxId id =
      alloc_tx(Tx{kind, line_addr, requester, bytes, std::move(hooks)});
  // A write-back's request packet carries the line; everything else is a
  // control message.
  const std::uint32_t payload =
      kind == BusTxKind::kWriteBack ? bytes : cfg_.ctrl_bytes;
  noc_.send(requester, home_tile(line_addr), payload,
            [this, id](Cycle) { home_arrive(id); });
}

void DirectoryMesh::attach_l3(MemorySideCache* l3) {
  l3_ = l3;
  if (l3_ == nullptr) return;
  // The bank's own dirty traffic (decay turn-offs, dirty victims) crosses
  // the mesh to the memory tile like any other data packet.
  l3_->connect_memory_port(
      [this](std::uint32_t bank, Addr line, std::uint32_t bytes) {
        noc_.send(bank, cfg_.mem_tile, bytes,
                  [this, bytes, line](Cycle c) { mem_write(c, bytes, line); });
      });
}

void DirectoryMesh::mem_write(Cycle at, std::uint32_t bytes, Addr line) {
  if (mem_.model() == mem::MemoryModel::kDram) {
    mem_.dram_write(at, bytes, line, {});
  } else {
    mem_.post_write(at, bytes);
  }
}

void DirectoryMesh::note_clean_drop(CoreId core, Addr line_addr) {
  // Bookkeeping is applied at the drop instant (shrinking the bitmap early
  // only narrows future snoop sets — a directed snoop to a dropped copy
  // would have been a no-op anyway); the PutS/PutE control message still
  // crosses the mesh for timing and energy.
  dir_.note_clean_drop(core, line_addr);
  noc_.send(core, home_tile(line_addr), cfg_.ctrl_bytes, {});
}

void DirectoryMesh::defer_append(DefList& q, TxId id) {
  tx_pool_[id].next = kNoTx;
  if (q.tail == kNoTx) {
    q.head = q.tail = id;
  } else {
    tx_pool_[q.tail].next = id;
    q.tail = id;
  }
}

void DirectoryMesh::home_arrive(TxId id) {
  // Preserve per-line arrival order past a parked queue: anything that is
  // not the unblocking write-back joins the queue's tail.
  Tx& t = tx_pool_[id];
  if (t.kind != BusTxKind::kWriteBack) {
    if (DefList* q = deferred_.find(t.line)) {
      dir_.stats().deferrals.inc();
      defer_append(*q, id);
      return;
    }
  }
  const std::uint32_t home = home_tile(t.line);
  const Cycle earliest = eq_.now() + cfg_.directory_latency;
  const Cycle grant = earliest > bank_free_[home] ? earliest : bank_free_[home];
  bank_free_[home] = grant + cfg_.bank_occupancy;
  eq_.schedule_at(grant, [this, id] { process(id); });
}

void DirectoryMesh::finish_tx(TxId id, BusResult res, Cycle at) {
  auto cb = std::move(tx_pool_[id].hooks.on_done);
  free_tx(id);  // the slot is reusable before the hook reenters request()
  if (cb) {
    res.done_at = at;
    cb(res);
  }
}

void DirectoryMesh::wb_finish(TxId id, BusResult res, Cycle at) {
  // Only schedule the completion event when a hook will observe it — the
  // event-count metrics are pinned, and the pre-pool code created no event
  // for a hook-less write-back either.
  if (!tx_pool_[id].hooks.on_done) {
    free_tx(id);
    return;
  }
  res.done_at = at;
  eq_.schedule_at(at, [this, id, res] { finish_tx(id, res, res.done_at); });
}

void DirectoryMesh::process(TxId id) {
  const prof::ScopedPhase prof_scope(prof::Phase::kFabric);
  const Cycle granted = eq_.now();
  // Stable across reentrancy: tx_pool_ is a deque, so snoops and hooks
  // below may alloc_tx() without moving this record.
  Tx& tx = tx_pool_[id];
  const Addr line = tx.line;
  const BusTxKind kind = tx.kind;

  // Home-bank grant span: the window this transaction occupies its
  // serialization point (matches the bank_occupancy reserved at arrival).
  if (trace_ != nullptr) {
    trace_->span(trace_track_, coherence::to_string(kind).data(), granted,
                 granted + cfg_.bank_occupancy, "line", line);
  }

  // A cancelled transaction vanishes before its snoop phase: no snoops, no
  // traffic, no memory write — identical to the bus's validator semantics.
  if (tx.hooks.validator && !tx.hooks.validator()) {
    cancelled_.inc();
    if (obs_ && kind == BusTxKind::kWriteBack) {
      obs_->on_writeback_resolved(tx.requester, line, granted,
                                  /*cancelled=*/true);
    }
    // Move the fallback hook out before releasing the slot: on_cancel
    // reenters request() (e.g. a dropped BusUpgr reissued as BusRdX), which
    // may immediately reuse this very id.
    auto on_cancel = std::move(tx.hooks.on_cancel);
    free_tx(id);
    if (on_cancel) on_cancel();
    if (kind == BusTxKind::kWriteBack) wake_deferred(line);
    return;
  }

  // Late-write-back deferral: the recorded owner no longer holds data, so
  // its dirty write-back is still crossing the fabric and memory is stale.
  // Park the fill behind it (see the file comment in the header).
  if (kind == BusTxKind::kBusRd || kind == BusTxKind::kBusRdX) {
    const coherence::DirectoryEntry* e = dir_.find(line);
    if (e != nullptr && e->owner != kNoCore) {
      const bool owner_has_data =
          e->owner != tx.requester &&
          coherence::holds_data(snoopers_[e->owner]->probe(line));
      if (!owner_has_data) {
        dir_.stats().deferrals.inc();
        defer_append(deferred_[line], id);
        return;
      }
    }
  }

  tx_count_[static_cast<std::size_t>(kind)].inc();

  BusResult res;
  res.granted_at = granted;
  res.done_at = granted;  // provisional; the data legs set the real value

  bool flush_mem = false;
  CoreId supplier = kNoCore;
  std::uint64_t targets = 0;

  if (kind == BusTxKind::kWriteBack) {
    // A dirty *turn-off* write-back (requester still holds the line in TD)
    // must not release tracking yet: the copy stays snoopable until the
    // power-off completes, and the L2 reports that death through
    // note_clean_drop. Eviction write-backs (the copy died at evict time)
    // release here.
    if (snoopers_[tx.requester]->probe(line) ==
        MesiState::kTransientDirty) {
      dir_.stats().owner_writebacks.inc();
    } else {
      dir_.writeback_granted(tx.requester, line);
    }
    if (obs_) {
      obs_->on_writeback_resolved(tx.requester, line, granted,
                                  /*cancelled=*/false,
                                  /*to_l3=*/l3_ != nullptr);
    }
  } else {
    // No entry reference survives the snoops below: a snoop can drop other
    // lines (note_clean_drop), which moves entries of the flat map.
    targets = dir_.snoop_targets(dir_.lookup(line), tx.requester);

    // A BusUpgr issued while the requester holds the line in TD is the
    // §III Owned-turn-off invalidation round — served here as a recall
    // directed at exactly the tracked sharers, not a broadcast.
    if (kind == BusTxKind::kBusUpgr &&
        snoopers_[tx.requester]->probe(line) ==
            MesiState::kTransientDirty) {
      dir_.stats().recalls.inc();
    }

    // Directed snoops, atomic at this grant (the bus's address phase,
    // narrowed to the tracked holders).
    for (CoreId t = 0; t < static_cast<CoreId>(snoopers_.size()); ++t) {
      if (((targets >> t) & 1u) == 0) continue;
      dir_.stats().directed_snoops.inc();
      const SnoopReply r = snoopers_[t]->snoop(kind, line, tx.requester);
      res.shared = res.shared || r.had_line;
      if (r.supplied_data) {
        CDSIM_ASSERT_MSG(supplier == kNoCore, "two suppliers for one line");
        res.supplied_by_cache = true;
        supplier = t;
      }
      flush_mem = flush_mem || r.memory_update;
    }
  }

  // Install/commit at the grant — the same atomic contract as the bus.
  if (tx.hooks.on_grant) tx.hooks.on_grant(res);

  // Bitmap refresh: probe every involved cache, including the requester's
  // just-installed copy. Write-backs change nothing beyond
  // writeback_granted (the requester's TD copy lives until on_done). The
  // entry is looked up again after on_grant (which may have moved it);
  // probes are side-effect-free, so `e` stays valid through the loop.
  if (kind != BusTxKind::kWriteBack) {
    coherence::DirectoryEntry& e = dir_.lookup(line);
    const std::uint64_t involved =
        targets | (std::uint64_t{1} << tx.requester);
    for (CoreId t = 0; t < static_cast<CoreId>(snoopers_.size()); ++t) {
      if (((involved >> t) & 1u) == 0) continue;
      dir_.record_probe(e, t, snoopers_[t]->probe(line));
    }
    CDSIM_ASSERT_MSG(e.owner == kNoCore || e.tracked(e.owner),
                     "directory owner must be a tracked sharer");
    dir_.drop_if_uncached(line);
  }

  data_legs(id, res, targets, flush_mem, supplier);
  if (kind == BusTxKind::kWriteBack) wake_deferred(line);
}

void DirectoryMesh::data_legs(TxId id, BusResult res, std::uint64_t targets,
                              bool flush_mem, CoreId supplier) {
  Tx& tx = tx_pool_[id];
  const std::uint32_t req_tile = tx.requester;
  const std::uint32_t home = home_tile(tx.line);

  switch (tx.kind) {
    case BusTxKind::kBusRd:
    case BusTxKind::kBusRdX: {
      if (res.supplied_by_cache) {
        CDSIM_ASSERT(supplier != kNoCore);
        if (flush_mem) {
          // The flush ends ownership (MESI always; MOESI for RdX): the
          // dirty line also travels to the memory tile, posted on arrival.
          // Any L3 copy predates this flush and must not serve again.
          if (l3_ != nullptr) l3_->invalidate(home, tx.line);
          const std::uint32_t bytes = tx.bytes;
          noc_.send(supplier, cfg_.mem_tile, bytes,
                    [this, bytes, line = tx.line](Cycle c) {
                      mem_write(c, bytes, line);
                    });
        }
        // Forward home -> owner, then the line owner -> requester.
        noc_.send(home, supplier, cfg_.ctrl_bytes,
                  [this, id, res, supplier, req_tile](Cycle) {
                    noc_.send(supplier, req_tile, tx_pool_[id].bytes,
                              [this, id, res](Cycle arr) {
                                finish_tx(id, res, arr);
                              });
                  });
      } else if (l3_ != nullptr && l3_->lookup_for_fill(home, tx.line)) {
        // Three-level: the home's L3 bank holds the line. The bank is at
        // the serialization point, so the data leaves after the bank's
        // access latency — no off-chip traffic at all.
        const Cycle ready = eq_.now() + l3_->access_latency();
        eq_.schedule_at(ready, [this, id, res, req_tile, home] {
          noc_.send(home, req_tile, tx_pool_[id].bytes,
                    [this, id, res](Cycle arr) { finish_tx(id, res, arr); });
        });
      } else {
        // home -> memory tile (read request), memory access, then the
        // line memory tile -> requester. With L3 banks attached, the
        // delivered line is also written into the home bank (off the
        // critical path — the bank fill does not delay the requester).
        noc_.send(home, cfg_.mem_tile, cfg_.ctrl_bytes,
                  [this, id, res, req_tile, home](Cycle arr) {
                    // The delivery leg runs when memory has the line: flat
                    // computes the cycle synchronously, kDram resolves it
                    // through the controller's completion callback.
                    auto deliver = [this, id, res, req_tile,
                                    home](Cycle /*ready*/) {
                      if (l3_ != nullptr) {
                        l3_->install_from_memory(home, tx_pool_[id].line);
                      }
                      noc_.send(cfg_.mem_tile, req_tile, tx_pool_[id].bytes,
                                [this, id, res](Cycle a2) {
                                  finish_tx(id, res, a2);
                                });
                    };
                    if (mem_.model() == mem::MemoryModel::kDram) {
                      mem_.dram_read(arr, tx_pool_[id].bytes,
                                     tx_pool_[id].line, std::move(deliver));
                    } else {
                      const Cycle ready =
                          mem_.schedule_read(arr, tx_pool_[id].bytes);
                      eq_.schedule_at(
                          ready, [deliver = std::move(deliver),
                                  ready]() mutable { deliver(ready); });
                    }
                  });
      }
      break;
    }

    case BusTxKind::kBusUpgr: {
      // The invalidations were applied at the grant; the packets model the
      // inval/ack round trips, and the requester's ack closes the
      // transaction once every sharer answered. The fan-in counter lives
      // in the pooled record itself (Tx::remaining) — no shared_ptr.
      tx.remaining = static_cast<std::uint32_t>(std::popcount(targets));
      if (tx.remaining == 0) {
        noc_.send(home, req_tile, cfg_.ctrl_bytes,
                  [this, id, res](Cycle a) { finish_tx(id, res, a); });
        break;
      }
      for (CoreId t = 0; t < static_cast<CoreId>(snoopers_.size()); ++t) {
        if (((targets >> t) & 1u) == 0) continue;
        noc_.send(home, t, cfg_.ctrl_bytes,
                  [this, t, home, id, res, req_tile](Cycle) {
                    noc_.send(t, home, cfg_.ctrl_bytes,
                              [this, id, res, req_tile, home](Cycle) {
                                if (--tx_pool_[id].remaining != 0) return;
                                noc_.send(home, req_tile, cfg_.ctrl_bytes,
                                          [this, id, res](Cycle a) {
                                            finish_tx(id, res, a);
                                          });
                              });
                  });
      }
      break;
    }

    case BusTxKind::kWriteBack: {
      // The data reached the home with the request. Three-level: the home
      // bank absorbs it (dirty) and the channel sees nothing; two-level:
      // forward it to memory.
      const std::uint32_t bytes = tx.bytes;
      const Cycle local_done = res.granted_at + cfg_.directory_latency;
      if (l3_ == nullptr && !mem_.config().posted_writes) {
        // Non-posted: the evicting cache's completion waits for the
        // memory write to land, not just the directory's ack. (An L3
        // absorption completes locally — memory was never involved.)
        noc_.send(home, cfg_.mem_tile, bytes,
                  [this, id, res, local_done](Cycle c) {
                    if (mem_.model() == mem::MemoryModel::kDram) {
                      mem_.dram_write(
                          c, tx_pool_[id].bytes, tx_pool_[id].line,
                          [this, id, res, local_done](Cycle t) {
                            wb_finish(id, res,
                                      t > local_done ? t : local_done);
                          });
                    } else {
                      const Cycle wdone =
                          mem_.post_write(c, tx_pool_[id].bytes);
                      wb_finish(id, res,
                                wdone > local_done ? wdone : local_done);
                    }
                  });
        break;
      }
      if (l3_ != nullptr) {
        l3_->absorb_writeback(home, tx.line);
      } else {
        noc_.send(home, cfg_.mem_tile, bytes,
                  [this, bytes, line = tx.line](Cycle c) {
                    mem_write(c, bytes, line);
                  });
      }
      wb_finish(id, res, local_done);
      break;
    }
  }
}

void DirectoryMesh::wake_deferred(Addr line) {
  const DefList* q = deferred_.find(line);
  if (q == nullptr) return;
  TxId cur = q->head;
  deferred_.erase(line);
  const std::uint32_t home = home_tile(line);
  while (cur != kNoTx) {
    // Re-grant in FIFO order through the bank; a transaction may defer
    // again if yet another write-back is in flight by then.
    const TxId id = cur;
    cur = tx_pool_[id].next;
    tx_pool_[id].next = kNoTx;
    const Cycle earliest = eq_.now() + cfg_.bank_occupancy;
    const Cycle grant =
        earliest > bank_free_[home] ? earliest : bank_free_[home];
    bank_free_[home] = grant + cfg_.bank_occupancy;
    eq_.schedule_at(grant, [this, id] { process(id); });
  }
}

}  // namespace cdsim::noc
