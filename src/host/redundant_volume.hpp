// Host-side redundant volume: mirrored or single-parity layouts over N
// member devices, with degraded reads, an online scrub, and live member
// rebuild (DESIGN.md §8).
//
// StripedVolume (§6) scales capacity and bandwidth but dies with its
// weakest member: one failed or power-cut device makes the whole logical
// address space unreadable. RedundantVolume is the robustness
// counterpart — the btrfs scrub/replace story over the same typed
// MemberZone machinery:
//
//   * kMirror — members form groups of R replicas; every stripe unit is
//     written to all R members of its group at identical member offsets.
//     Logical zones interleave round-robin across the N/R groups, so a
//     logical zone is exactly one member zone, R times.
//   * kParity — members form sets of W lanes (W >= 3). Each stripe row
//     holds W-1 data units plus one XOR parity unit on a rotating lane
//     (parity lane of row k is W-1-(k%W), RAID-5 style), so one member's
//     loss costs 1/W of capacity, not half. A logical zone spans W member
//     zones and holds (W-1) * member_zone_size data bytes. Because every
//     lane is written in every row, parity volumes accept writes only in
//     whole stripe-row multiples (full-stripe writes — the standard ZNS
//     answer to the read-modify-write hole).
//
// Degraded reads. A member is excluded from service once it is latched
// failed — explicitly (MarkFailed), by a failed write leg, or because a
// replacement is rebuilding it. Reads that hit a failed/lagging member
// (media error, powered-off FailedPrecondition, write-pointer-regressed
// OutOfRange) are reconstructed: mirror reads fail over to the next
// replica; parity reads XOR the row's surviving units. The request still
// succeeds, the per-IO IoResult::reconstructed_units signals it, and
// RedundancyStats aggregates it. kInvalidArgument/kInternal/kUnimplemented
// are volume bugs and propagate.
//
// Online scrub. StartScrub + Tick walk the volume stripe row by stripe
// row at a configured rows-per-tick pace, interleaved with foreground
// traffic by the caller: replicas are compared token for token, parity
// rows are checked to XOR to zero, and a lagging member (its durable
// prefix ends inside the row — the signature of a survived power cut) is
// repaired by appending the reconstructed slots at its write pointer.
// Repair authority is strictly the kActive members: a failed member may
// hold stale content (writes and zone resets issued while it was out of
// service never reached it), so its tokens never overwrite or extend an
// active replica's — content found only on non-active members is logged
// as a mismatch and blocks that member's readmission (ResetZone also
// best-effort-propagates to failed-but-online members so their zones do
// not go stale in the first place). Readable-but-divergent content on
// zoned members cannot be rewritten in place (append-only media); it is
// counted and logged deterministically in scrub_log() instead.
// Conventional mirrors repair by overwrite.
//
// Live rebuild. ReplaceMember(i, fresh) swaps in a fresh device and
// rebuilds member i's content zone by zone, stripe row by stripe row,
// from peers (mirror) or by XOR of the other lanes (parity), while the
// volume keeps serving foreground traffic: writes land on the fresh
// member for zones already rebuilt and are recopied later for zones
// ahead of the cursor; reads treat the rebuilding member as absent. Each
// Tick ends with a Flush of the fresh member, so a power cut at a tick
// boundary recovers to exactly the rebuilt prefix; a cut mid-tick
// regresses the fresh member to a durable row prefix and the next Tick
// resynchronizes by probing the readable prefix and continuing from
// there — never a torn row (the PR 4 crash checker's prefix rule, lifted
// to the volume).
//
// Determinism. Member legs are issued in member order on the calling
// thread (every leg is issued even after one fails, the lowest-index
// error wins, and failed members are latched only after the last leg
// returns), replica selection and reconstruction orders are functions
// of the request alone, and scrub/rebuild advance in fixed cursor order
// — so every outcome is bit-identical across same-seed reruns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "core/storage_device.hpp"
#include "host/striped_volume.hpp"  // MemberZone

namespace conzone {

class Executor;

enum class RedundancyLayout {
  kMirror,  ///< R-way replication per stripe unit.
  kParity,  ///< Rotating single-parity (RAID-5-style XOR) per stripe row.
};

enum class MemberState {
  kActive,      ///< Serving reads and writes.
  kFailed,      ///< Excluded from service; awaiting ReplaceMember.
  kRebuilding,  ///< Fresh device being filled; writes join per rebuilt zone.
};

struct RedundantVolumeOptions {
  RedundancyLayout layout = RedundancyLayout::kMirror;
  /// Stripe unit: reconstruction, scrub and rebuild all advance in units
  /// of this many bytes. Must divide the member zone size and be a
  /// multiple of the members' I/O alignment.
  std::uint64_t stripe_bytes = 64 * 1024;
  /// kMirror: replicas per mirror group (0 = all members in one group).
  /// Must divide the member count and be >= 2.
  std::uint32_t replicas = 0;
  /// kParity: lanes per stripe set, parity included (0 = all members).
  /// Must divide the member count and be >= 3.
  std::uint32_t stripe_width = 0;
  /// Background quantum: stripe rows verified (scrub) or copied
  /// (rebuild) per Tick().
  std::uint32_t rows_per_tick = 8;
};

/// One deterministic scrub finding: replica/parity disagreement that
/// could not be repaired in place (zoned media is append-only).
struct ScrubMismatch {
  ZoneId logical;        ///< Logical zone of the divergent row.
  std::uint32_t row;     ///< Stripe row index within the zone.
  std::uint32_t member;  ///< Divergent member (parity rows: the set's first).

  bool operator==(const ScrubMismatch&) const = default;
};

class RedundantVolume final : public StorageDevice {
 public:
  /// Validates member geometry (uniform zonedness, zone size, alignment;
  /// group/set arithmetic; parity requires zoned members) and takes
  /// ownership.
  static Result<std::unique_ptr<RedundantVolume>> Create(
      std::vector<std::unique_ptr<StorageDevice>> members,
      const RedundantVolumeOptions& options = {});

  DeviceInfo info() const override;
  Result<IoResult> Write(const IoRequest& req) override;
  Result<IoResult> Read(const IoRequest& req) override;
  Result<SimTime> ResetZone(ZoneId zone, SimTime now) override;
  Result<SimTime> Flush(SimTime now) override;
  StatsSnapshot Stats() const override;
  ReliabilityStats Reliability() const override;
  RecoveryStats Recovery() const override;

  /// Volume-level redundancy accounting (degraded service, scrub,
  /// rebuild). Member-level fault accounting stays in Reliability().
  const RedundancyStats& Redundancy() const { return red_; }

  /// No-op: member legs always run inline. Kept only because
  /// perfbench/src/workloads.cpp, the benchmark's own tree, still calls
  /// it; delete it with the next change to the benchmark.
  void set_executor(Executor* /*unused*/) {}

  // --- Member failure & replacement ---

  /// Latch member `i` failed: it receives no further I/O and reads are
  /// served degraded. Idempotent.
  Status MarkFailed(std::uint32_t i);

  /// Swap in a fresh device for member `i` (failed or not) and start a
  /// live rebuild. The fresh device must match the member geometry and
  /// be empty; one rebuild at a time; an active scrub is cancelled. The
  /// old device is destroyed. Rebuild work advances via Tick().
  Status ReplaceMember(std::uint32_t i, std::unique_ptr<StorageDevice> fresh,
                       SimTime now);

  // --- Background work (scrub / rebuild), tick-scheduled ---

  /// Begin a full-volume scrub pass from zone 0. Fails if a rebuild is
  /// active or a scrub is already running.
  Status StartScrub(SimTime now);

  /// Advance the active background job (rebuild has priority over scrub)
  /// by `rows_per_tick` stripe rows and flush the members it wrote.
  /// Returns the simulated completion time of the work performed (== now
  /// when idle). A powered-off member surfaces as an error; recover it
  /// and call Tick again — the rebuild resynchronizes itself.
  Result<SimTime> Tick(SimTime now);

  bool scrub_active() const { return scrub_active_; }
  bool rebuild_active() const { return rebuild_member_ >= 0; }
  /// Member under rebuild (-1 when none).
  std::int32_t rebuild_member() const { return rebuild_member_; }
  /// Member zones fully rebuilt so far (== member zone rows when done).
  std::uint32_t rebuild_zones_done() const { return rebuild_zone_; }

  /// Unrepairable divergences found by scrub, in deterministic walk
  /// order (capped; the scrub_mismatches counter keeps counting).
  const std::vector<ScrubMismatch>& scrub_log() const { return scrub_log_; }

  // --- Introspection (tests, tools) ---
  std::uint32_t num_members() const { return static_cast<std::uint32_t>(members_.size()); }
  RedundancyLayout layout() const { return layout_; }
  /// Mirror: replicas per group. Parity: lanes per set (parity included).
  std::uint32_t group_size() const { return group_; }
  std::uint64_t stripe_bytes() const { return stripe_; }
  StorageDevice& member(std::uint32_t i) { return *members_[i]; }
  const StorageDevice& member(std::uint32_t i) const { return *members_[i]; }
  MemberState member_state(std::uint32_t i) const { return state_[i]; }

  /// The member zone holding lane `lane` (mirror: replica index) of
  /// logical zone `logical`. Zoned volumes only.
  MemberZone ToMemberZone(ZoneId logical, std::uint32_t lane) const;
  /// Inverse: the logical zone a member zone belongs to.
  ZoneId ToLogicalZone(const MemberZone& mz) const;
  /// Parity: the lane holding row k's parity unit (rotates per row).
  std::uint32_t ParityLane(std::uint64_t row) const {
    return group_ - 1 - static_cast<std::uint32_t>(row % group_);
  }

 private:
  RedundantVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                  const RedundantVolumeOptions& options, DeviceInfo member_info,
                  std::uint32_t rows);

  // --- Routing helpers ---
  /// Validate a request and resolve its logical zone / group anchor.
  Status Resolve(const IoRequest& req, bool write, std::uint64_t* logical,
                 std::uint64_t* in_zone) const;
  /// First member index of logical zone `logical`'s group/set.
  std::uint32_t GroupBase(std::uint64_t logical) const {
    return static_cast<std::uint32_t>(logical % num_groups_) * group_;
  }
  /// Member zone row of logical zone `logical`.
  std::uint64_t MemberRow(std::uint64_t logical) const {
    return logical / num_groups_;
  }
  /// True when `code` signals a failed/lagging member whose data the
  /// volume may reconstruct (vs a caller/volume bug that must propagate).
  static bool Reconstructable(StatusCode code);
  /// Latch a member failed (idempotent) and count it.
  void LatchFailed(std::uint32_t m);
  /// Issue one leg per member in target_scratch_, in order, on the
  /// calling thread; `leg(m)` returns member m's completion. Every leg
  /// is issued even after an earlier one fails (a real host already has
  /// them all in flight). Returns the latest successful completion
  /// (>= now), counts failed legs in *failed and keeps the lowest-index
  /// error in *first_err. Unless every leg failed — then the request
  /// itself is at fault — the failed members are latched, after the
  /// last leg returned.
  template <class Leg>
  SimTime IssueLegs(SimTime now, Leg&& leg, std::size_t* failed,
                    Status* first_err);
  /// Reads are served only by fully-active members: a rebuilding member
  /// may hold holes until its completion verify sweep passes, so it never
  /// serves foreground reads.
  bool Readable(std::uint32_t m) const { return state_[m] == MemberState::kActive; }
  /// Writes include a rebuilding member once the target is behind the
  /// copy cursor (`where` = member zone row when zoned, byte offset when
  /// conventional), so rebuilt ground stays in sync with the peers.
  bool Writable(std::uint32_t m, std::uint64_t where) const;

  /// Default token the volume materializes when the host writes without
  /// tokens, so replica comparison and parity XOR are well-defined
  /// across heterogeneous member types.
  std::uint64_t VolumeToken(std::uint64_t logical_page) const {
    return 0x9ED00000ull ^ logical_page;
  }

  // --- Data-path bodies ---
  Result<IoResult> WriteMirror(const IoRequest& req, std::uint64_t logical,
                               std::uint64_t in_zone);
  Result<IoResult> WriteParity(const IoRequest& req, std::uint64_t logical,
                               std::uint64_t in_zone);
  Result<IoResult> ReadMirror(const IoRequest& req, std::uint64_t logical,
                              std::uint64_t in_zone);
  Result<IoResult> ReadParity(const IoRequest& req, std::uint64_t logical,
                              std::uint64_t in_zone);
  /// Reconstruct the byte range [unit_off, unit_off + len) of lane
  /// `lost` in stripe row `row` of logical zone `logical` by XOR of the
  /// other lanes. Fills `tokens_out` (always gathered) and returns the
  /// latest peer completion.
  Result<SimTime> ReconstructParity(std::uint64_t logical, std::uint64_t row,
                                    std::uint32_t lost, std::uint64_t unit_off,
                                    std::uint64_t len, SimTime now,
                                    std::vector<std::uint64_t>* tokens_out);

  // --- Background work bodies ---
  Result<SimTime> TickScrub(SimTime now);
  Result<SimTime> TickRebuild(SimTime now);
  /// Scrub one stripe row; sets *content to false when the row is beyond
  /// every member's durable content (zone exhausted).
  Result<SimTime> ScrubRowMirror(std::uint64_t logical, std::uint64_t row,
                                 SimTime now, bool* content);
  Result<SimTime> ScrubRowParity(std::uint64_t logical, std::uint64_t row,
                                 SimTime now, bool* content);
  Result<SimTime> ScrubConventional(SimTime now, bool* content);
  /// Copy/reconstruct one stripe row of the zone under rebuild onto the
  /// fresh member; sets *content=false at the source's durable end.
  Result<SimTime> RebuildRow(SimTime now, bool* content);
  Result<SimTime> RebuildConventionalChunk(SimTime now, bool* content);
  /// Completion verify sweep, one zone per call: compare the fresh
  /// member's durable prefix against the source's; on a shortfall (a
  /// power cut tore rebuilt ground) re-enter the copy phase at the hole.
  Result<SimTime> VerifyRebuildZone(SimTime now, bool* hole);
  /// Conventional verify: re-compare one chunk slot by slot, repairing
  /// divergent/stale slots in place (conventional media overwrites).
  Result<SimTime> VerifyConventionalChunk(SimTime now);
  /// Durable content of the rebuild source for member zone row `zr`, in
  /// slots: mirror = best surviving replica's prefix, parity = the
  /// shortest prefix across the other lanes (the reconstructable bound).
  /// Fails if a source member is offline (caller must Recover it).
  Status SourceZoneSlots(std::uint32_t zr, SimTime now, std::uint64_t* slots,
                         SimTime* done);
  /// Handle a failed append to the fresh member: offline propagates;
  /// otherwise escalate probe-resync → zone reset → Internal.
  Status FreshWriteFailed(Status leg, SimTime now, SimTime* done);
  /// Readable 4 KiB slots of `m` in [base, base+span), probed slot by
  /// slot from `base` (the prefix property makes this the write pointer).
  std::uint64_t ProbePrefix(std::uint32_t m, std::uint64_t base,
                            std::uint64_t span, SimTime now, SimTime* done);
  void RecordMismatch(std::uint64_t logical, std::uint64_t row, std::uint32_t m);

  std::vector<std::unique_ptr<StorageDevice>> members_;
  std::vector<MemberState> state_;
  DeviceInfo member_info_;  ///< Common member geometry (name = first member's).
  RedundancyLayout layout_;
  std::uint64_t stripe_;      ///< Stripe unit bytes.
  std::uint32_t group_;       ///< Members per group (mirror) / set (parity).
  std::uint32_t num_groups_;  ///< members / group_.
  std::uint32_t rows_;        ///< Member zones consumed per member (zoned).
  std::uint64_t zone_bytes_;  ///< Logical zone size (zoned; 0 otherwise).
  std::uint64_t member_span_; ///< Mirrored bytes per member (conventional).
  std::uint64_t align_;       ///< I/O alignment = token granularity.
  std::uint32_t rows_per_tick_;  ///< Background quantum (stripe rows / Tick).

  RedundancyStats red_;
  std::vector<ScrubMismatch> scrub_log_;
  static constexpr std::size_t kScrubLogCap = 4096;

  // Scrub cursor (logical zone, stripe row) — valid while scrub_active_.
  bool scrub_active_ = false;
  std::uint64_t scrub_zone_ = 0;
  std::uint64_t scrub_row_ = 0;
  std::uint64_t scrub_off_ = 0;  ///< Conventional: byte cursor.
  /// Per-member per-pass verdict: 1 while every row of this pass agreed
  /// with (or was repaired onto) the member. A failed member that ends a
  /// pass clean — and no foreground write dirtied scrubbed ground — is
  /// readmitted to kActive.
  std::vector<std::uint8_t> scrub_clean_;
  /// A foreground write/reset landed at or behind the scrub cursor, so
  /// "pass was clean" no longer implies "member is in sync".
  bool scrub_dirty_ = false;

  // Rebuild cursor — valid while rebuild_member_ >= 0. Zoned: member
  // zone index + byte offset inside it; conventional: byte offset.
  // Phases: 0 = copy (cursor rebuild_zone_/rebuild_off_), 1 = verify
  // sweep (cursor rebuild_verify_zone_), 2 = re-copying a hole the
  // verify found (zone rebuild_verify_zone_, offset rebuild_off_).
  std::int32_t rebuild_member_ = -1;
  std::uint8_t rebuild_phase_ = 0;
  std::uint32_t rebuild_zone_ = 0;
  std::uint32_t rebuild_verify_zone_ = 0;
  std::uint64_t rebuild_off_ = 0;
  /// Consecutive failed appends to the fresh member: 1 → probe-resync
  /// the cursor to its durable prefix (the post-power-cut path), 2 →
  /// reset the member zone and restart it, 3 → give up (Internal).
  std::uint32_t rebuild_fail_streak_ = 0;

  // Per-request scratch, reused so the routing path stays allocation-
  // free after warm-up (the volume never re-enters itself).
  std::vector<std::uint64_t> token_scratch_;  ///< Materialized write tokens.
  std::vector<std::vector<std::uint64_t>> lane_tokens_;
  std::vector<std::uint32_t> target_scratch_;  ///< Members served by this request.
  std::vector<std::uint32_t> failed_scratch_;  ///< Members whose leg failed.
  /// One parity read's per-stripe-unit fragment: where it lives, and
  /// what its direct read or reconstruction returned.
  struct ParityFrag {
    std::uint32_t lane = 0;
    std::uint64_t moff = 0;
    std::uint64_t len = 0;
    std::uint64_t row = 0;
    std::uint64_t unit_off = 0;
    bool need = false;  ///< Lane unreadable or its read failed: reconstruct.
    Status status;      ///< The direct read's error, if any.
    SimTime done;
    std::vector<std::uint64_t> tokens;  ///< Filled only when tokens are wanted.
  };
  std::vector<ParityFrag> frag_scratch_;
};

}  // namespace conzone
