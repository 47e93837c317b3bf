#include "runtime/team.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runtime/metrics.h"

namespace apgas {

namespace team_detail {

const char* op_name(TeamOp op) {
  switch (op) {
    case kOpBarrier: return "barrier";
    case kOpBcast: return "bcast";
    case kOpReduce: return "reduce";
    case kOpAllreduce: return "allreduce";
    case kOpScatter: return "scatter";
    case kOpGather: return "gather";
    case kOpAlltoall: return "alltoall";
    case kOpAllgather: return "allgather";
    case kOpSplit: return "split";
  }
  return "unknown";
}

void record_op_ns(TeamOp op, std::uint64_t ns) {
  // Name lookup takes the registry lock, but only when histograms are armed
  // (the caller gates on hist::enabled()) and only once per collective call.
  Runtime::get()
      .metrics()
      .histogram(std::string("team.op_ns.") + op_name(op))
      .record(ns);
}

TeamState::TeamState(std::uint64_t team_id, TeamMode m, std::vector<int> mem)
    : id(team_id), mode(m), members(std::move(mem)), slots(members.size()) {
  for (int r = 0; r < static_cast<int>(members.size()); ++r) {
    rank_of[members[static_cast<std::size_t>(r)]] = r;
  }
  per.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    per.push_back(std::make_unique<Member>());
  }
}

namespace {
std::mutex g_registry_mu;
std::unordered_map<std::uint64_t, std::shared_ptr<TeamState>> g_registry;

/// Mail that arrived (as a frame task) before this process created the team
/// it addresses — possible only across processes, where each place builds
/// its registry independently and a fast sender can beat the receiver's
/// get_or_create. Drained, in arrival order, when the team appears.
struct PendingMail {
  std::uint64_t seq;
  int tag;
  int src_rank;
  int dst_rank;
  std::vector<std::byte> payload;
};
std::unordered_map<std::uint64_t, std::vector<PendingMail>> g_pending;

/// Files one payload into the destination member's mailbox. Lock order is
/// registry -> member everywhere (get_or_create drains pending mail while
/// holding the registry lock), never the reverse.
void file_mail(TeamState& team, std::uint64_t seq, int tag, int src_rank,
               int dst_rank, std::vector<std::byte> payload) {
  if (dst_rank < 0 || dst_rank >= static_cast<int>(team.per.size())) {
    std::fprintf(stderr,
                 "[apgas] fatal: team mail frame addresses rank %d of team "
                 "%llu (size %zu)\n",
                 dst_rank, static_cast<unsigned long long>(team.id),
                 team.per.size());
    std::abort();
  }
  auto& member = *team.per[static_cast<std::size_t>(dst_rank)];
  std::scoped_lock lock(member.mu);
  member.mail.emplace(std::make_tuple(seq, tag, src_rank),
                      std::move(payload));
}

/// The registered frame task carrying emulated Team mail:
/// [team_id u64][seq u64][tag i32][src_rank i32][dst_rank i32][payload raw].
/// Registered pre-main (pre-fork), so every place process of one binary
/// agrees on the id — the same contract as every other frame task.
void team_mail_task(x10rt::ByteBuffer& b) {
  const auto team_id = b.get<std::uint64_t>();
  const auto seq = b.get<std::uint64_t>();
  const int tag = b.get<std::int32_t>();
  const int src_rank = b.get<std::int32_t>();
  const int dst_rank = b.get<std::int32_t>();
  std::vector<std::byte> payload(b.remaining());
  if (!payload.empty()) b.get_raw(payload.data(), payload.size());
  std::shared_ptr<TeamState> team;
  {
    std::scoped_lock lock(g_registry_mu);
    auto it = g_registry.find(team_id);
    if (it == g_registry.end()) {
      g_pending[team_id].push_back(
          {seq, tag, src_rank, dst_rank, std::move(payload)});
      return;
    }
    team = it->second;
  }
  file_mail(*team, seq, tag, src_rank, dst_rank, std::move(payload));
}
}  // namespace

const int kTeamMailTask = apgas::register_task_fn(&team_mail_task);

std::shared_ptr<TeamState> get_or_create(std::uint64_t id, TeamMode mode,
                                         const std::vector<int>& members) {
  std::scoped_lock lock(g_registry_mu);
  auto& slot = g_registry[id];
  if (!slot) {
    slot = std::make_shared<TeamState>(id, mode, members);
    // Deliver mail frames that raced ahead of this process's create.
    if (auto it = g_pending.find(id); it != g_pending.end()) {
      for (auto& m : it->second) {
        file_mail(*slot, m.seq, m.tag, m.src_rank, m.dst_rank,
                  std::move(m.payload));
      }
      g_pending.erase(it);
    }
  }
  assert(slot->members == members && slot->mode == mode &&
         "team id collision with different membership");
  return slot;
}

void registry_clear() {
  std::scoped_lock lock(g_registry_mu);
  g_registry.clear();
  g_pending.clear();
}

}  // namespace team_detail

Team Team::world(TeamMode mode) {
  std::vector<int> members(static_cast<std::size_t>(num_places()));
  for (int p = 0; p < num_places(); ++p) members[static_cast<std::size_t>(p)] = p;
  const std::uint64_t id = mode == TeamMode::kNative ? 1 : 0;
  return Team(team_detail::get_or_create(id, mode, members));
}

std::uint64_t Team::next_seq() {
  auto& member = *state_->per[static_cast<std::size_t>(rank())];
  std::scoped_lock lock(member.mu);
  return ++member.op_seq;
}

void Team::send_bytes(std::uint64_t seq, int tag, int dst_rank,
                      std::vector<std::byte> payload) {
  // Mail rides a registered frame task instead of a closure, so it crosses
  // process boundaries under the socket backend; the in-process backend runs
  // the identical frame path, keeping both backends' accounting equal.
  const int dst_place = place_of(dst_rank);
  auto frame = Runtime::get().transport().acquire_buffer();
  frame.put(state_->id);
  frame.put(seq);
  frame.put(static_cast<std::int32_t>(tag));
  frame.put(static_cast<std::int32_t>(rank()));
  frame.put(static_cast<std::int32_t>(dst_rank));
  if (!payload.empty()) frame.put_raw(payload.data(), payload.size());
  immediateAtFrame(dst_place, team_detail::kTeamMailTask, std::move(frame),
                   x10rt::MsgType::kCollective);
}

std::vector<std::byte> Team::recv_bytes(std::uint64_t seq, int tag,
                                        int src_rank) {
  auto& member = *state_->per[static_cast<std::size_t>(rank())];
  const auto key = std::make_tuple(seq, tag, src_rank);
  std::vector<std::byte> out;
  bool got = false;
  Runtime::get().sched(here()).run_until([&] {
    std::scoped_lock lock(member.mu);
    auto it = member.mail.find(key);
    if (it == member.mail.end()) return false;
    out = std::move(it->second);
    member.mail.erase(it);
    got = true;
    return true;
  });
  if (!got) {
    // Must never happen: run_until only returns once the predicate holds.
    // Under NDEBUG an assert would compile out and silently hand an empty
    // payload to the collective; abort loudly instead (same policy as
    // Activity::take_credit_share).
    std::fprintf(stderr,
                 "[apgas] fatal: Team::recv_bytes returned without a matching "
                 "mail entry (team=%llu seq=%llu tag=%d src_rank=%d)\n",
                 static_cast<unsigned long long>(state_->id),
                 static_cast<unsigned long long>(seq), tag, src_rank);
    std::abort();
  }
  return out;
}

void Team::barrier() {
  team_detail::PhaseScope phase(team_detail::kOpBarrier, state_->id);
  const int sz = size();
  if (sz == 1) return;
  if (effective_mode() == TeamMode::kNative) {
    using team_detail::Slot;
    native_wait(&Slot::arrive, native_publish(nullptr, -1), -1);
    return;
  }
  // Dissemination barrier: ceil(log2(n)) rounds of partner signalling.
  const std::uint64_t seq = next_seq();
  const int me = rank();
  for (int round = 0, dist = 1; dist < sz; ++round, dist <<= 1) {
    send_bytes(seq, /*tag=*/100 + round, (me + dist) % sz, {});
    (void)recv_bytes(seq, /*tag=*/100 + round, (me + sz - dist) % sz);
  }
}

std::uint64_t Team::native_publish(const void* buf, int peer) {
  const std::uint64_t epoch = next_seq();
  auto& slot = state_->slots[static_cast<std::size_t>(rank())];
  slot.buf.store(static_cast<const std::byte*>(buf), std::memory_order_relaxed);
  slot.arrive.store(epoch, std::memory_order_release);
  native_wake(peer);
  return epoch;
}

void Team::native_done(std::uint64_t epoch, int peer) {
  state_->slots[static_cast<std::size_t>(rank())].done.store(
      epoch, std::memory_order_release);
  native_wake(peer);
}

void Team::native_wake(int peer) {
  // run_until parks through enter_idle, the sleeper half of the handshake
  // notify_if_sleeping completes, so a waker pays a syscall only for a
  // peer that is actually parked.
  auto& tr = Runtime::get().transport();
  if (peer >= 0) {
    tr.notify_if_sleeping(place_of(peer));
    return;
  }
  for (int p : state_->members) {
    if (p != here()) tr.notify_if_sleeping(p);
  }
}

void Team::native_wait(std::atomic<std::uint64_t> team_detail::Slot::*field,
                       std::uint64_t epoch, int peer) {
  const auto& slots = state_->slots;
  const int me = rank();
  const int sz = size();
  // Epochs only grow, so a peer once seen at `epoch` stays there: the cursor
  // never rescans it.
  int next = peer >= 0 ? peer : 0;
  const int end = peer >= 0 ? peer + 1 : sz;
  auto reached = [&] {
    for (; next < end; ++next) {
      if (next == me) continue;
      if ((slots[static_cast<std::size_t>(next)].*field).load(
              std::memory_order_acquire) < epoch) {
        return false;
      }
    }
    return true;
  };
  if (!reached()) Runtime::get().sched(here()).run_until(reached);
}

Team Team::split(int color, int key) {
  team_detail::PhaseScope phase(team_detail::kOpSplit, state_->id);
  struct Entry {
    int color;
    int key;
    int rank;
    int place;
    std::uint64_t seq;  // sender's op count entering the split
  };
  const int sz = size();
  const int me = rank();
  // The derived team id hangs off the parent's op count, so the count must
  // be read under the member lock (collectives on other worker threads bump
  // it via next_seq) and *before* the allgather below advances it — the
  // post-allgather value would race with whatever collective runs next.
  std::uint64_t my_seq;
  {
    auto& member = *state_->per[static_cast<std::size_t>(me)];
    std::scoped_lock lock(member.mu);
    my_seq = member.op_seq;
  }
  std::vector<Entry> entries(static_cast<std::size_t>(sz));
  const Entry mine{color, key, me, here(), my_seq};
  allgather(&mine, entries.data(), 1);

  std::vector<Entry> same;
  for (const auto& e : entries) {
    // Every member must enter the split at the same op count, or the
    // "identical derived id" assumption the registry rendezvous depends on
    // is already broken — fail here, not at the id-collision assert.
    assert(e.seq == my_seq &&
           "Team::split members entered at different op counts");
    if (e.color == color) same.push_back(e);
  }
  std::sort(same.begin(), same.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });
  std::vector<int> members;
  members.reserve(same.size());
  for (const auto& e : same) members.push_back(e.place);

  // Deterministic id every member computes identically: derived from the
  // parent team, the color, and the parent's op count entering the split.
  const std::uint64_t id = (state_->id * 1315423911ULL) ^
                           (static_cast<std::uint64_t>(color) << 32) ^ my_seq ^
                           0x51ed2701ULL;
  return Team(team_detail::get_or_create(id, state_->mode, members));
}

}  // namespace apgas
