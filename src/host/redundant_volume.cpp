#include "host/redundant_volume.hpp"

#include <algorithm>
#include <utility>

namespace conzone {

Result<std::unique_ptr<RedundantVolume>> RedundantVolume::Create(
    std::vector<std::unique_ptr<StorageDevice>> members,
    const RedundantVolumeOptions& options) {
  if (members.size() < 2) {
    return Status::InvalidArgument("redundant volume needs at least two members");
  }
  for (const auto& m : members) {
    if (m == nullptr) return Status::InvalidArgument("null member device");
  }
  const std::uint32_t n = static_cast<std::uint32_t>(members.size());

  const DeviceInfo first = members[0]->info();
  for (const auto& m : members) {
    const DeviceInfo di = m->info();
    if (di.io_alignment != first.io_alignment) {
      return Status::InvalidArgument("members disagree on I/O alignment");
    }
    if (di.zoned() != first.zoned()) {
      return Status::InvalidArgument(
          "cannot mix zoned and conventional members in one volume");
    }
    if (di.zoned()) {
      if (di.zone_size_bytes != first.zone_size_bytes) {
        return Status::InvalidArgument("members disagree on zone size");
      }
      if (di.num_conventional_zones != 0) {
        return Status::InvalidArgument(
            "members with conventional zones are not supported");
      }
    }
  }

  std::uint32_t group = 0;
  if (options.layout == RedundancyLayout::kMirror) {
    group = options.replicas == 0 ? n : options.replicas;
    if (group < 2 || n % group != 0) {
      return Status::InvalidArgument(
          "mirror replicas must be >= 2 and divide the member count");
    }
    if (!first.zoned() && group != n) {
      // Without zones there is no row to interleave groups over; a
      // conventional mirror replicates across all members.
      return Status::InvalidArgument(
          "conventional mirrors replicate across all members");
    }
  } else {
    if (!first.zoned()) {
      // Parity over in-place media would need read-modify-write of the
      // parity unit on every small write — out of scope by design.
      return Status::InvalidArgument("parity layout requires zoned members");
    }
    group = options.stripe_width == 0 ? n : options.stripe_width;
    if (group < 3 || n % group != 0) {
      return Status::InvalidArgument(
          "parity stripe width must be >= 3 and divide the member count");
    }
  }

  if (options.stripe_bytes == 0 ||
      options.stripe_bytes % first.io_alignment != 0) {
    return Status::InvalidArgument(
        "stripe unit must be a non-zero multiple of the I/O alignment");
  }
  if (options.rows_per_tick == 0) {
    return Status::InvalidArgument("rows_per_tick must be non-zero");
  }

  std::uint32_t rows = 0;
  if (first.zoned()) {
    if (first.zone_size_bytes % options.stripe_bytes != 0) {
      return Status::InvalidArgument("stripe unit must divide the zone size");
    }
    rows = members[0]->info().num_zones;
    for (const auto& m : members) rows = std::min(rows, m->info().num_zones);
    if (rows == 0) return Status::InvalidArgument("members have no zones");
  } else {
    std::uint64_t span = members[0]->info().capacity_bytes;
    for (const auto& m : members) span = std::min(span, m->info().capacity_bytes);
    span -= span % options.stripe_bytes;
    if (span == 0) {
      return Status::InvalidArgument("members smaller than one stripe unit");
    }
  }

  return std::unique_ptr<RedundantVolume>(
      new RedundantVolume(std::move(members), options, first, rows));
}

RedundantVolume::RedundantVolume(std::vector<std::unique_ptr<StorageDevice>> members,
                                 const RedundantVolumeOptions& options,
                                 DeviceInfo member_info, std::uint32_t rows)
    : members_(std::move(members)),
      state_(members_.size(), MemberState::kActive),
      member_info_(std::move(member_info)),
      layout_(options.layout),
      stripe_(options.stripe_bytes),
      rows_(rows),
      align_(member_info_.io_alignment),
      rows_per_tick_(options.rows_per_tick) {
  const std::uint32_t n = static_cast<std::uint32_t>(members_.size());
  if (layout_ == RedundancyLayout::kMirror) {
    group_ = options.replicas == 0 ? n : options.replicas;
  } else {
    group_ = options.stripe_width == 0 ? n : options.stripe_width;
  }
  num_groups_ = n / group_;
  if (member_info_.zoned()) {
    zone_bytes_ = layout_ == RedundancyLayout::kParity
                      ? (group_ - 1) * member_info_.zone_size_bytes
                      : member_info_.zone_size_bytes;
    member_span_ = member_info_.zone_size_bytes * rows_;
  } else {
    zone_bytes_ = 0;
    std::uint64_t span = members_[0]->info().capacity_bytes;
    for (const auto& m : members_) span = std::min(span, m->info().capacity_bytes);
    member_span_ = span - span % stripe_;
  }
  lane_tokens_.resize(group_);
  target_scratch_.reserve(n);
  failed_scratch_.reserve(n);
  scrub_clean_.assign(n, 1);
}

DeviceInfo RedundantVolume::info() const {
  DeviceInfo di;
  di.name = (layout_ == RedundancyLayout::kMirror ? "mirror-" : "parity-") +
            std::to_string(members_.size()) + "x" + std::to_string(group_) + "-" +
            member_info_.name;
  di.io_alignment = align_;
  if (member_info_.zoned()) {
    di.zone_size_bytes = zone_bytes_;
    di.num_zones = rows_ * num_groups_;
    di.capacity_bytes = zone_bytes_ * di.num_zones;
    // Opening a logical zone opens one member zone on each group/set
    // member, so the guaranteed volume-wide limit is the weakest
    // member's (0 = unlimited; any limited member caps the volume).
    std::uint32_t open = 0, active = 0;
    for (const auto& m : members_) {
      const DeviceInfo mi = m->info();
      if (mi.max_open_zones != 0) {
        open = open == 0 ? mi.max_open_zones : std::min(open, mi.max_open_zones);
      }
      if (mi.max_active_zones != 0) {
        active =
            active == 0 ? mi.max_active_zones : std::min(active, mi.max_active_zones);
      }
    }
    di.max_open_zones = open;
    di.max_active_zones = active;
  } else {
    di.capacity_bytes = member_span_;
  }
  for (const auto& m : members_) di.slc_bytes += m->info().slc_bytes;
  // The volume serves while every group/set is within its failure
  // tolerance; one lost group takes the whole address space with it.
  di.health = DeviceHealth::kHealthy;
  for (std::uint32_t g = 0; g < num_groups_; ++g) {
    std::uint32_t live = 0;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      if (state_[g * group_ + lane] == MemberState::kActive) ++live;
    }
    const bool dead = layout_ == RedundancyLayout::kMirror ? live == 0
                                                           : group_ - live > 1;
    if (dead) {
      di.health = DeviceHealth::kOffline;
      break;
    }
  }
  return di;
}

MemberZone RedundantVolume::ToMemberZone(ZoneId logical, std::uint32_t lane) const {
  return MemberZone{GroupBase(logical.value()) + lane,
                    ZoneId{MemberRow(logical.value())}};
}

ZoneId RedundantVolume::ToLogicalZone(const MemberZone& mz) const {
  const std::uint64_t g = mz.member / group_;
  return ZoneId{mz.zone.value() * num_groups_ + g};
}

Status RedundantVolume::Resolve(const IoRequest& req, bool write,
                                std::uint64_t* logical,
                                std::uint64_t* in_zone) const {
  (void)write;
  if (req.len == 0 || req.offset % align_ != 0 || req.len % align_ != 0) {
    return Status::InvalidArgument("request must be aligned and non-empty");
  }
  if (zone_bytes_ != 0) {
    const std::uint64_t l = req.offset / zone_bytes_;
    if (l >= static_cast<std::uint64_t>(rows_) * num_groups_) {
      return Status::OutOfRange("request beyond volume capacity");
    }
    const std::uint64_t in = req.offset - l * zone_bytes_;
    if (in + req.len > zone_bytes_) {
      return Status::InvalidArgument("request crosses a zone boundary");
    }
    *logical = l;
    *in_zone = in;
  } else {
    if (req.offset + req.len > member_span_) {
      return Status::OutOfRange("request beyond volume capacity");
    }
    *logical = 0;
    *in_zone = req.offset;
  }
  return Status::Ok();
}

bool RedundantVolume::Reconstructable(StatusCode code) {
  switch (code) {
    case StatusCode::kMediaError:         // NAND gave the data up.
    case StatusCode::kFailedPrecondition: // Powered off / zone-state skew.
    case StatusCode::kOutOfRange:         // WP regressed below the request.
    case StatusCode::kResourceExhausted:  // Member latched read-only.
      return true;
    default:
      return false;
  }
}

void RedundantVolume::LatchFailed(std::uint32_t m) {
  if (state_[m] == MemberState::kFailed) return;
  state_[m] = MemberState::kFailed;
  red_.member_failures++;
  if (static_cast<std::int32_t>(m) == rebuild_member_) rebuild_member_ = -1;
}

bool RedundantVolume::Writable(std::uint32_t m, std::uint64_t where) const {
  switch (state_[m]) {
    case MemberState::kActive:
      return true;
    case MemberState::kFailed:
      return false;
    case MemberState::kRebuilding:
      break;
  }
  if (zone_bytes_ != 0) {
    if (rebuild_phase_ == 2) return where != rebuild_verify_zone_;
    if (rebuild_phase_ == 1) return true;
    return where < rebuild_zone_;
  }
  return rebuild_phase_ >= 1 || where < rebuild_off_;
}

template <class Leg>
SimTime RedundantVolume::IssueLegs(SimTime now, Leg&& leg, std::size_t* failed,
                                   Status* first_err) {
  failed_scratch_.clear();
  SimTime done = now;
  for (const std::uint32_t m : target_scratch_) {
    Result<SimTime> r = leg(m);
    if (r.ok()) {
      done = Later(done, r.value());
    } else {
      if (first_err->ok()) *first_err = r.status();
      failed_scratch_.push_back(m);
    }
  }
  *failed = failed_scratch_.size();
  if (*failed < target_scratch_.size()) {
    for (const std::uint32_t m : failed_scratch_) LatchFailed(m);
  }
  return done;
}

Result<IoResult> RedundantVolume::Write(const IoRequest& req) {
  std::uint64_t logical = 0, in_zone = 0;
  if (Status st = Resolve(req, /*write=*/true, &logical, &in_zone); !st.ok()) {
    return st;
  }
  if (!req.tokens.empty() && req.tokens.size() != req.len / align_) {
    return Status::InvalidArgument("token count != written pages");
  }
  if (scrub_active_) {
    // Writing at or behind the scrub cursor invalidates "this pass saw
    // the whole volume in sync" — readmission must not use it.
    const bool behind = zone_bytes_ != 0 ? logical <= scrub_zone_
                                         : req.offset <= scrub_off_;
    if (behind) scrub_dirty_ = true;
  }
  return layout_ == RedundancyLayout::kMirror ? WriteMirror(req, logical, in_zone)
                                              : WriteParity(req, logical, in_zone);
}

Result<IoResult> RedundantVolume::WriteMirror(const IoRequest& req,
                                              std::uint64_t logical,
                                              std::uint64_t in_zone) {
  const std::uint64_t pages = req.len / align_;
  // Materialize explicit tokens so every replica stores identical
  // content regardless of its device type's default-token scheme.
  std::span<const std::uint64_t> toks = req.tokens;
  if (toks.empty()) {
    token_scratch_.resize(pages);
    const std::uint64_t p0 = req.offset / align_;
    for (std::uint64_t i = 0; i < pages; ++i) {
      token_scratch_[i] = VolumeToken(p0 + i);
    }
    toks = token_scratch_;
  }

  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t moff =
      zone_bytes_ != 0 ? zr * member_info_.zone_size_bytes + in_zone : req.offset;

  target_scratch_.clear();
  bool degraded = false;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (!Writable(m, zone_bytes_ != 0 ? zr : req.offset)) {
      degraded = true;
      continue;
    }
    target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no writable replica in mirror group");
  }

  std::size_t failed = 0;
  Status first_err;
  const SimTime done = IssueLegs(
      req.now,
      [&](std::uint32_t m) -> Result<SimTime> {
        auto res = members_[m]->Write(IoRequest{moff, req.len, req.now, toks,
                                                /*want_tokens=*/false,
                                                req.io_class});
        if (!res.ok()) return res.status();
        return res.value().done;
      },
      &failed, &first_err);
  if (failed == target_scratch_.size()) {
    // Every leg refused identically — almost certainly the request
    // itself (misaligned, beyond WP), not a member fault. No latching.
    return first_err;
  }
  if (failed > 0) degraded = true;
  if (degraded) red_.degraded_writes++;
  return IoResult{done, {}};
}

Result<IoResult> RedundantVolume::WriteParity(const IoRequest& req,
                                              std::uint64_t logical,
                                              std::uint64_t in_zone) {
  const std::uint64_t row_bytes = (group_ - 1) * stripe_;
  if (in_zone % row_bytes != 0 || req.len % row_bytes != 0) {
    // Every lane is written in every row, so sub-row writes would need
    // read-modify-write of the parity unit (the RAID-5 write hole).
    return Status::InvalidArgument(
        "parity volume writes must be whole stripe-row multiples");
  }
  const std::uint64_t pages = req.len / align_;
  std::span<const std::uint64_t> toks = req.tokens;
  if (toks.empty()) {
    token_scratch_.resize(pages);
    const std::uint64_t p0 = req.offset / align_;
    for (std::uint64_t i = 0; i < pages; ++i) {
      token_scratch_[i] = VolumeToken(p0 + i);
    }
    toks = token_scratch_;
  }

  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t r0 = in_zone / row_bytes;
  const std::uint64_t nrows = req.len / row_bytes;
  const std::uint64_t unit_pages = stripe_ / align_;
  const std::uint64_t run_off = zr * member_info_.zone_size_bytes + r0 * stripe_;
  const std::uint64_t run_len = nrows * stripe_;

  // Gather each lane's tokens (data units in rotating-parity order,
  // parity units XOR-folded) row by row; every lane's run is contiguous
  // in its member's address space because every row touches every lane.
  for (auto& v : lane_tokens_) v.clear();
  for (std::uint64_t x = 0; x < nrows; ++x) {
    const std::uint64_t k = r0 + x;
    const std::uint32_t p = ParityLane(k);
    const std::uint64_t row_base = x * (group_ - 1) * unit_pages;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      auto& lt = lane_tokens_[lane];
      if (lane == p) {
        for (std::uint64_t j = 0; j < unit_pages; ++j) {
          std::uint64_t acc = 0;
          for (std::uint32_t d = 0; d + 1 < group_; ++d) {
            acc ^= toks[row_base + d * unit_pages + j];
          }
          lt.push_back(acc);
        }
      } else {
        const std::uint32_t d = lane - (lane > p ? 1 : 0);
        const std::uint64_t from = row_base + d * unit_pages;
        for (std::uint64_t j = 0; j < unit_pages; ++j) lt.push_back(toks[from + j]);
      }
    }
  }

  target_scratch_.clear();
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (Writable(base + lane, zr)) target_scratch_.push_back(base + lane);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no writable lane in parity set");
  }
  if (group_ - static_cast<std::uint32_t>(target_scratch_.size()) > 1) {
    // Refuse before any leg is issued: appending the row on the
    // survivors and then failing would skew their write pointers within
    // the stripe and poison full-row retries after the members return.
    return Status::FailedPrecondition("parity set beyond single-fault tolerance");
  }

  std::size_t failed = 0;
  Status first_err;
  const SimTime done = IssueLegs(
      req.now,
      [&](std::uint32_t m) -> Result<SimTime> {
        auto res = members_[m]->Write(
            IoRequest{run_off, run_len, req.now,
                      std::span<const std::uint64_t>(lane_tokens_[m - base]),
                      /*want_tokens=*/false, req.io_class});
        if (!res.ok()) return res.status();
        return res.value().done;
      },
      &failed, &first_err);
  if (failed == target_scratch_.size()) return first_err;  // Request bug.
  const std::uint32_t missing =
      group_ - static_cast<std::uint32_t>(target_scratch_.size() - failed);
  if (missing > 1) {
    // Two lanes short of one row: single parity cannot get the data
    // back; acknowledging the write would be silent loss.
    return !first_err.ok()
               ? first_err
               : Status::FailedPrecondition(
                     "parity set beyond single-fault tolerance");
  }
  if (missing > 0) red_.degraded_writes++;
  return IoResult{done, {}};
}

Result<IoResult> RedundantVolume::Read(const IoRequest& req) {
  std::uint64_t logical = 0, in_zone = 0;
  if (Status st = Resolve(req, /*write=*/false, &logical, &in_zone); !st.ok()) {
    return st;
  }
  return layout_ == RedundancyLayout::kMirror ? ReadMirror(req, logical, in_zone)
                                              : ReadParity(req, logical, in_zone);
}

Result<IoResult> RedundantVolume::ReadMirror(const IoRequest& req,
                                             std::uint64_t logical,
                                             std::uint64_t in_zone) {
  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t moff =
      zone_bytes_ != 0 ? zr * member_info_.zone_size_bytes + in_zone : req.offset;
  const std::uint64_t units =
      (in_zone + req.len - 1) / stripe_ - in_zone / stripe_ + 1;
  // Primary replica rotates with the zone row and the first stripe unit
  // so independent streams spread across the group; fallback order is a
  // fixed function of the request.
  const std::uint32_t primary =
      static_cast<std::uint32_t>((zr + in_zone / stripe_) % group_);

  Status first_err;
  for (std::uint32_t t = 0; t < group_; ++t) {
    const std::uint32_t lane = (primary + t) % group_;
    const std::uint32_t m = base + lane;
    if (!Readable(m)) continue;
    auto res = members_[m]->Read(
        IoRequest{moff, req.len, req.now, {}, req.want_tokens, req.io_class});
    if (res.ok()) {
      IoResult out = std::move(res).value();
      if (t != 0) {
        out.reconstructed_units = static_cast<std::uint32_t>(units);
        red_.degraded_reads++;
        red_.reconstructed_units += units;
      }
      return out;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    if (first_err.ok()) first_err = res.status();
  }
  if (!first_err.ok()) return first_err;
  return Status::FailedPrecondition("no readable replica in mirror group");
}

Result<IoResult> RedundantVolume::ReadParity(const IoRequest& req,
                                             std::uint64_t logical,
                                             std::uint64_t in_zone) {
  const std::uint64_t row_bytes = (group_ - 1) * stripe_;
  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t mzs = member_info_.zone_size_bytes;

  // Split the data-space range into per-unit fragments; each fragment
  // lives on exactly one lane of the set.
  std::vector<ParityFrag>& frags = frag_scratch_;
  frags.clear();
  std::uint64_t db = in_zone, left = req.len;
  while (left > 0) {
    const std::uint64_t k = db / row_bytes;
    const std::uint64_t wr = db % row_bytes;
    const std::uint64_t d = wr / stripe_;
    const std::uint64_t uo = wr % stripe_;
    const std::uint64_t take = std::min(stripe_ - uo, left);
    const std::uint32_t p = ParityLane(k);
    ParityFrag& f = frags.emplace_back();
    f.lane = static_cast<std::uint32_t>(d) + (d >= p ? 1u : 0u);
    f.moff = zr * mzs + k * stripe_ + uo;
    f.len = take;
    f.row = k;
    f.unit_off = uo;
    db += take;
    left -= take;
  }

  // Direct reads, in fragment order; a fragment on an unreadable lane
  // is reconstructed below.
  for (ParityFrag& f : frags) {
    if (!Readable(base + f.lane)) {
      f.need = true;
      continue;
    }
    auto res = members_[base + f.lane]->Read(
        IoRequest{f.moff, f.len, req.now, {}, req.want_tokens, req.io_class});
    if (!res.ok()) {
      f.status = res.status();
    } else {
      f.done = res.value().done;
      if (req.want_tokens) f.tokens = std::move(res.value().tokens);
    }
  }

  // Reconstruction pass, after every direct read: a lost fragment reads
  // the same in-unit byte range from the other W-1 lanes and XORs
  // pagewise.
  IoResult out;
  out.done = req.now;
  std::uint32_t recon = 0;
  for (ParityFrag& f : frags) {
    if (!f.need && !f.status.ok()) {
      if (!Reconstructable(f.status.code())) return std::move(f.status);
      f.need = true;
    }
    if (f.need) {
      auto r = ReconstructParity(logical, f.row, f.lane, f.unit_off, f.len,
                                 req.now, &f.tokens);
      if (!r.ok()) {
        // Prefer the direct read's own error (e.g. plain beyond-WP) so a
        // degraded volume fails the same way a bare device would.
        return f.status.ok() ? r.status() : std::move(f.status);
      }
      f.done = r.value();
      ++recon;
    }
    out.done = Later(out.done, f.done);
  }

  if (recon > 0) {
    out.reconstructed_units = recon;
    red_.degraded_reads++;
    red_.reconstructed_units += recon;
  }
  if (req.want_tokens) {
    out.tokens.reserve(req.len / align_);
    for (const ParityFrag& f : frags) {
      out.tokens.insert(out.tokens.end(), f.tokens.begin(), f.tokens.end());
    }
  }
  return out;
}

Result<SimTime> RedundantVolume::ReconstructParity(
    std::uint64_t logical, std::uint64_t row, std::uint32_t lost,
    std::uint64_t unit_off, std::uint64_t len, SimTime now,
    std::vector<std::uint64_t>* tokens_out) {
  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t moff =
      zr * member_info_.zone_size_bytes + row * stripe_ + unit_off;
  const std::uint64_t pages = len / align_;
  tokens_out->assign(pages, 0);
  SimTime done = now;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (lane == lost) continue;
    const std::uint32_t m = base + lane;
    if (!Readable(m)) {
      return Status::FailedPrecondition(
          "parity reconstruction needs every surviving lane of the set");
    }
    auto res = members_[m]->Read(
        IoRequest{moff, len, now, {}, /*want_tokens=*/true});
    if (!res.ok()) return res.status();
    for (std::uint64_t j = 0; j < pages; ++j) {
      (*tokens_out)[j] ^= res.value().tokens[j];
    }
    done = Later(done, res.value().done);
  }
  return done;
}

Result<SimTime> RedundantVolume::ResetZone(ZoneId zone, SimTime now) {
  if (zone_bytes_ == 0) {
    return Status::Unimplemented("volume has no zones");
  }
  if (!zone.valid() ||
      zone.value() >= static_cast<std::uint64_t>(rows_) * num_groups_) {
    return Status::OutOfRange("reset of invalid zone");
  }
  if (scrub_active_ && zone.value() <= scrub_zone_) scrub_dirty_ = true;

  const std::uint32_t base = GroupBase(zone.value());
  const std::uint64_t zr = MemberRow(zone.value());
  target_scratch_.clear();
  bool restart_copy = false;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (state_[m] == MemberState::kFailed) continue;
    if (state_[m] == MemberState::kRebuilding) {
      // Zones ahead of the copy cursor are still empty on the fresh
      // member; behind (or under) it they must be reset with the peers.
      if (rebuild_phase_ == 0 && zr > rebuild_zone_) continue;
      if ((rebuild_phase_ == 0 && zr == rebuild_zone_) ||
          (rebuild_phase_ == 2 && zr == rebuild_verify_zone_)) {
        restart_copy = true;
      }
    }
    target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no serviceable member for zone reset");
  }

  std::size_t failed = 0;
  Status first_err;
  SimTime done = IssueLegs(
      now, [&](std::uint32_t m) { return members_[m]->ResetZone(ZoneId{zr}, now); },
      &failed, &first_err);
  if (failed == target_scratch_.size()) return first_err;
  if (restart_copy && rebuild_member_ >= 0) {
    rebuild_off_ = 0;
    rebuild_fail_streak_ = 0;
  }
  // Best-effort: propagate the reset to failed members that are still
  // online, so a later scrub never sees pre-reset content on them (and
  // readmission starts from an in-sync, empty zone). Errors here neither
  // fail the reset nor re-latch — the member is already failed.
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (state_[m] != MemberState::kFailed) continue;
    if (members_[m]->info().health == DeviceHealth::kOffline) continue;
    auto r = members_[m]->ResetZone(ZoneId{zr}, now);
    if (r.ok()) done = Later(done, r.value());
  }
  return done;
}

Result<SimTime> RedundantVolume::Flush(SimTime now) {
  target_scratch_.clear();
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (state_[m] != MemberState::kFailed) target_scratch_.push_back(m);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no serviceable member to flush");
  }
  std::size_t failed = 0;
  Status first_err;
  const SimTime done = IssueLegs(
      now, [&](std::uint32_t m) { return members_[m]->Flush(now); }, &failed,
      &first_err);
  if (failed == target_scratch_.size()) return first_err;
  return done;
}

StatsSnapshot RedundantVolume::Stats() const {
  StatsSnapshot s;
  for (const auto& m : members_) s.Merge(m->Stats());
  return s;
}

ReliabilityStats RedundantVolume::Reliability() const {
  ReliabilityStats s;
  for (const auto& m : members_) s.Merge(m->Reliability());
  return s;
}

RecoveryStats RedundantVolume::Recovery() const {
  RecoveryStats s;
  for (const auto& m : members_) s.Merge(m->Recovery());
  return s;
}

Status RedundantVolume::MarkFailed(std::uint32_t i) {
  if (i >= members_.size()) return Status::InvalidArgument("no such member");
  LatchFailed(i);
  return Status::Ok();
}

Status RedundantVolume::ReplaceMember(std::uint32_t i,
                                      std::unique_ptr<StorageDevice> fresh,
                                      SimTime now) {
  (void)now;
  if (i >= members_.size()) return Status::InvalidArgument("no such member");
  if (fresh == nullptr) return Status::InvalidArgument("null replacement device");
  if (rebuild_member_ >= 0) {
    return Status::FailedPrecondition("a rebuild is already active");
  }
  const DeviceInfo fi = fresh->info();
  if (fi.io_alignment != align_) {
    return Status::InvalidArgument("replacement disagrees on I/O alignment");
  }
  if (fi.zoned() != member_info_.zoned()) {
    return Status::InvalidArgument("replacement zonedness mismatch");
  }
  if (member_info_.zoned()) {
    if (fi.zone_size_bytes != member_info_.zone_size_bytes) {
      return Status::InvalidArgument("replacement disagrees on zone size");
    }
    if (fi.num_zones < rows_) {
      return Status::InvalidArgument("replacement has too few zones");
    }
    if (fi.num_conventional_zones != 0) {
      return Status::InvalidArgument(
          "members with conventional zones are not supported");
    }
  } else if (fi.capacity_bytes < member_span_) {
    return Status::InvalidArgument("replacement smaller than the mirrored span");
  }
  if (fi.health != DeviceHealth::kHealthy) {
    return Status::FailedPrecondition("replacement device is not healthy");
  }
  scrub_active_ = false;  // Rebuild takes the background slot.
  members_[i] = std::move(fresh);
  state_[i] = MemberState::kRebuilding;
  rebuild_member_ = static_cast<std::int32_t>(i);
  rebuild_phase_ = 0;
  rebuild_zone_ = 0;
  rebuild_verify_zone_ = 0;
  rebuild_off_ = 0;
  rebuild_fail_streak_ = 0;
  return Status::Ok();
}

Status RedundantVolume::StartScrub(SimTime now) {
  (void)now;
  if (rebuild_member_ >= 0) {
    return Status::FailedPrecondition("cannot scrub during a rebuild");
  }
  if (scrub_active_) {
    return Status::FailedPrecondition("a scrub is already running");
  }
  scrub_active_ = true;
  scrub_zone_ = 0;
  scrub_row_ = 0;
  scrub_off_ = 0;
  scrub_clean_.assign(members_.size(), 1);
  scrub_dirty_ = false;
  return Status::Ok();
}

Result<SimTime> RedundantVolume::Tick(SimTime now) {
  if (rebuild_member_ >= 0) return TickRebuild(now);
  if (scrub_active_) return TickScrub(now);
  return now;
}

std::uint64_t RedundantVolume::ProbePrefix(std::uint32_t m, std::uint64_t base,
                                           std::uint64_t span, SimTime now,
                                           SimTime* done) {
  // Readability of a zone is a prefix (the recovered-WP contract the
  // crash checker enforces), so binary search is sound: O(log slots)
  // probe reads instead of a linear scan.
  std::uint64_t lo = 0, hi = span / align_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    auto r = members_[m]->Read(
        IoRequest{base + mid * align_, align_, now, {}, /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (r.ok()) {
      *done = Later(*done, r.value().done);
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void RedundantVolume::RecordMismatch(std::uint64_t logical, std::uint64_t row,
                                     std::uint32_t m) {
  red_.scrub_mismatches++;
  if (scrub_log_.size() < kScrubLogCap) {
    scrub_log_.push_back(
        ScrubMismatch{ZoneId{logical}, static_cast<std::uint32_t>(row), m});
  }
}

Result<SimTime> RedundantVolume::TickScrub(SimTime now) {
  SimTime done = now;
  bool finished = false;
  const std::uint64_t zone_rows =
      zone_bytes_ != 0 ? member_info_.zone_size_bytes / stripe_ : 0;
  const std::uint64_t total_zones =
      zone_bytes_ != 0 ? static_cast<std::uint64_t>(rows_) * num_groups_ : 0;

  for (std::uint32_t budget = rows_per_tick_; budget > 0; --budget) {
    if (zone_bytes_ != 0) {
      if (scrub_zone_ >= total_zones) {
        finished = true;
        break;
      }
      bool content = true;
      auto r = layout_ == RedundancyLayout::kMirror
                   ? ScrubRowMirror(scrub_zone_, scrub_row_, now, &content)
                   : ScrubRowParity(scrub_zone_, scrub_row_, now, &content);
      if (!r.ok()) return r;
      done = Later(done, r.value());
      if (content) {
        red_.scrub_rows++;
        scrub_row_++;
      }
      if (!content || scrub_row_ >= zone_rows) {
        scrub_zone_++;
        scrub_row_ = 0;
      }
      if (scrub_zone_ >= total_zones) {
        finished = true;
        break;
      }
    } else {
      if (scrub_off_ >= member_span_) {
        finished = true;
        break;
      }
      bool content = true;
      auto r = ScrubConventional(now, &content);
      if (!r.ok()) return r;
      done = Later(done, r.value());
      red_.scrub_rows++;
      scrub_off_ += stripe_;
      if (scrub_off_ >= member_span_) {
        finished = true;
        break;
      }
    }
  }

  // Make this tick's repairs durable — the crash boundary the
  // mid-scrub-cut tests sweep.
  for (std::uint32_t m = 0; m < members_.size(); ++m) {
    if (members_[m]->info().health == DeviceHealth::kOffline) continue;
    auto f = members_[m]->Flush(now);
    if (f.ok()) done = Later(done, f.value());
  }

  if (finished) {
    scrub_active_ = false;
    red_.scrubs_completed++;
    // Readmission: a failed member that the whole pass saw (or brought)
    // in sync is safe to serve again — unless foreground writes dirtied
    // already-scrubbed ground, in which case "clean" proved nothing.
    for (std::uint32_t m = 0; m < members_.size(); ++m) {
      if (state_[m] == MemberState::kFailed && scrub_clean_[m] != 0 &&
          !scrub_dirty_ &&
          members_[m]->info().health == DeviceHealth::kHealthy) {
        state_[m] = MemberState::kActive;
        red_.members_readmitted++;
      }
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::ScrubRowMirror(std::uint64_t logical,
                                                std::uint64_t row, SimTime now,
                                                bool* content) {
  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t row_off =
      zr * member_info_.zone_size_bytes + row * stripe_;
  const std::uint64_t slots = stripe_ / align_;
  SimTime done = now;

  std::vector<std::uint64_t> prefix(group_, 0);
  std::vector<std::vector<std::uint64_t>> toks(group_);
  std::vector<std::uint8_t> part(group_, 0);
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (members_[m]->info().health == DeviceHealth::kOffline) {
      scrub_clean_[m] = 0;  // Unverifiable this pass.
      continue;
    }
    part[lane] = 1;
    auto res = members_[m]->Read(
        IoRequest{row_off, stripe_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    if (res.ok()) {
      prefix[lane] = slots;
      toks[lane] = std::move(res.value().tokens);
      done = Later(done, res.value().done);
      continue;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    prefix[lane] = ProbePrefix(m, row_off, stripe_, now, &done);
    if (prefix[lane] > 0) {
      auto rr = members_[m]->Read(IoRequest{row_off, prefix[lane] * align_, now,
                                            {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (rr.ok()) {
        toks[lane] = std::move(rr.value().tokens);
        done = Later(done, rr.value().done);
      } else {
        prefix[lane] = 0;
        scrub_clean_[m] = 0;
      }
    }
  }

  // The repair authority is the longest ACTIVE replica. A non-active
  // member may hold stale content — e.g. a zone reset issued while it
  // was failed never landed on it — so sourcing from it would resurrect
  // deleted data onto the good replicas and then readmit the stale
  // member as clean.
  std::uint64_t max_p = 0;
  std::uint32_t src = 0;
  bool have_active = false;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (part[lane] == 0 || state_[base + lane] != MemberState::kActive) continue;
    have_active = true;
    if (prefix[lane] > max_p) {
      max_p = prefix[lane];
      src = lane;
    }
  }
  if (!have_active) {
    // No active replica participated: nothing is authoritative, so this
    // pass cannot vouch for any non-active lane it read here.
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      if (part[lane] != 0) scrub_clean_[base + lane] = 0;
    }
    *content = false;
    return done;
  }
  if (max_p == 0) {
    // Active content ends before this row. A non-active lane with
    // content here holds a stale tail (a reset or rewrite it missed) —
    // flag it so it is neither readmitted nor ever used as a source.
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      const std::uint32_t m = base + lane;
      if (part[lane] != 0 && state_[m] != MemberState::kActive &&
          prefix[lane] > 0) {
        RecordMismatch(logical, row, m);
        scrub_clean_[m] = 0;
      }
    }
    *content = false;
    return done;
  }
  *content = true;

  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (part[lane] == 0 || lane == src) continue;
    const std::uint32_t m = base + lane;
    bool diverged = false;
    const std::uint64_t common = std::min(prefix[lane], max_p);
    for (std::uint64_t j = 0; j < common; ++j) {
      if (toks[lane][j] != toks[src][j]) {
        // Readable-but-different content on append-only media cannot be
        // rewritten in place; count and log it instead.
        RecordMismatch(logical, row, m);
        scrub_clean_[m] = 0;
        diverged = true;
        break;
      }
    }
    if (!diverged && prefix[lane] > max_p) {
      // Content beyond the longest active replica: only a non-active
      // lane can get here (src is the active maximum), and the excess is
      // stale by definition.
      RecordMismatch(logical, row, m);
      scrub_clean_[m] = 0;
      diverged = true;
    }
    if (diverged || prefix[lane] >= max_p || scrub_clean_[m] == 0) continue;
    // The replica's durable content ends inside this row — the
    // signature of a survived power cut. Append the missing slots at
    // its write pointer from the longest replica.
    auto w = members_[m]->Write(IoRequest{
        row_off + prefix[lane] * align_, (max_p - prefix[lane]) * align_, now,
        std::span<const std::uint64_t>(toks[src].data() + prefix[lane],
                                       max_p - prefix[lane]),
        /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (w.ok()) {
      red_.scrub_repaired_slots += max_p - prefix[lane];
      done = Later(done, w.value().done);
    } else {
      RecordMismatch(logical, row, m);
      scrub_clean_[m] = 0;
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::ScrubRowParity(std::uint64_t logical,
                                                std::uint64_t row, SimTime now,
                                                bool* content) {
  const std::uint32_t base = GroupBase(logical);
  const std::uint64_t zr = MemberRow(logical);
  const std::uint64_t row_off =
      zr * member_info_.zone_size_bytes + row * stripe_;
  const std::uint64_t slots = stripe_ / align_;
  SimTime done = now;

  bool all_online = true;
  std::vector<std::uint64_t> prefix(group_, 0);
  std::vector<std::vector<std::uint64_t>> toks(group_);
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (members_[m]->info().health == DeviceHealth::kOffline) {
      scrub_clean_[m] = 0;
      all_online = false;
      continue;
    }
    auto res = members_[m]->Read(
        IoRequest{row_off, stripe_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    if (res.ok()) {
      prefix[lane] = slots;
      toks[lane] = std::move(res.value().tokens);
      done = Later(done, res.value().done);
      continue;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    prefix[lane] = ProbePrefix(m, row_off, stripe_, now, &done);
    if (prefix[lane] > 0) {
      auto rr = members_[m]->Read(IoRequest{row_off, prefix[lane] * align_, now,
                                            {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (rr.ok()) {
        toks[lane] = std::move(rr.value().tokens);
        done = Later(done, rr.value().done);
      } else {
        prefix[lane] = 0;
        scrub_clean_[m] = 0;
      }
    }
  }

  std::uint64_t max_p = 0, min_p = slots;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    max_p = std::max(max_p, prefix[lane]);
    min_p = std::min(min_p, prefix[lane]);
  }
  if (max_p == 0) {
    *content = false;
    return done;
  }
  *content = true;
  if (!all_online) return done;  // Cannot verify or repair without every lane.

  // Repair authority is bounded by the active lanes: a failed-but-online
  // lane may hold a stale tail (e.g. a zone reset issued while it was
  // unreachable), which XOR reconstruction would launder into its peers.
  std::uint64_t active_max = 0;
  bool any_active = false;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (state_[base + lane] != MemberState::kActive) continue;
    any_active = true;
    active_max = std::max(active_max, prefix[lane]);
  }
  if (!any_active) {
    // No authority at all; nothing read here is verifiable.
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      scrub_clean_[base + lane] = 0;
    }
    *content = false;
    return done;
  }
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    const std::uint32_t m = base + lane;
    if (state_[m] != MemberState::kActive && prefix[lane] > active_max) {
      RecordMismatch(logical, row, m);
      scrub_clean_[m] = 0;
    }
  }
  if (active_max == 0) {
    *content = false;  // Active content ends before this row.
    return done;
  }

  // Where every lane is present the row must XOR to zero, slot by slot.
  for (std::uint64_t j = 0; j < min_p; ++j) {
    std::uint64_t acc = 0;
    for (std::uint32_t lane = 0; lane < group_; ++lane) acc ^= toks[lane][j];
    if (acc != 0) {
      RecordMismatch(logical, row, base);
      for (std::uint32_t lane = 0; lane < group_; ++lane) {
        scrub_clean_[base + lane] = 0;  // Cannot tell which lane lies.
      }
      break;
    }
  }

  std::uint32_t short_lanes = 0, short_lane = 0;
  for (std::uint32_t lane = 0; lane < group_; ++lane) {
    if (prefix[lane] < max_p) {
      ++short_lanes;
      short_lane = lane;
    }
  }
  if (short_lanes == 1) {
    // The W-1 source lanes must all be active: XOR with a non-active
    // lane's tokens would append reconstructed-from-stale data.
    bool sources_active = true;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      if (lane != short_lane && state_[base + lane] != MemberState::kActive) {
        sources_active = false;
      }
    }
    const std::uint32_t m = base + short_lane;
    if (sources_active && scrub_clean_[m] != 0) {
      // Exactly one lagging lane: its missing slots are the XOR of the
      // other W-1, appended at its write pointer.
      const std::uint64_t nmiss = max_p - prefix[short_lane];
      std::vector<std::uint64_t> rec(nmiss, 0);
      for (std::uint32_t lane = 0; lane < group_; ++lane) {
        if (lane == short_lane) continue;
        for (std::uint64_t j = 0; j < nmiss; ++j) {
          rec[j] ^= toks[lane][prefix[short_lane] + j];
        }
      }
      auto w = members_[m]->Write(
          IoRequest{row_off + prefix[short_lane] * align_, nmiss * align_, now,
                    std::span<const std::uint64_t>(rec), /*want_tokens=*/false,
                  IoClass::kMaintenance});
      if (w.ok()) {
        red_.scrub_repaired_slots += nmiss;
        done = Later(done, w.value().done);
      } else {
        RecordMismatch(logical, row, m);
        scrub_clean_[m] = 0;
      }
    }
  } else if (short_lanes >= 2) {
    // Two lanes short of the same row: single parity cannot reconstruct
    // either — this is the double-fault data-loss case; log it.
    RecordMismatch(logical, row, base);
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      if (prefix[lane] < max_p) scrub_clean_[base + lane] = 0;
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::ScrubConventional(SimTime now, bool* content) {
  *content = true;  // Conventional scans the whole span; no content end.
  const std::uint64_t off = scrub_off_;
  const std::uint64_t chunk = std::min(stripe_, member_span_ - off);
  const std::uint64_t slots = chunk / align_;
  const std::uint32_t n = static_cast<std::uint32_t>(members_.size());
  SimTime done = now;

  // Conventional space has no prefix property — any slot can be mapped
  // or unmapped independently — so classification is per slot.
  std::vector<std::vector<std::uint64_t>> toks(n);
  std::vector<std::vector<std::uint8_t>> have(n);
  std::vector<std::uint8_t> part(n, 0);
  for (std::uint32_t m = 0; m < n; ++m) {
    if (members_[m]->info().health == DeviceHealth::kOffline) {
      scrub_clean_[m] = 0;
      continue;
    }
    part[m] = 1;
    toks[m].assign(slots, 0);
    have[m].assign(slots, 0);
    auto res =
        members_[m]->Read(IoRequest{off, chunk, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    if (res.ok()) {
      for (std::uint64_t j = 0; j < slots; ++j) {
        toks[m][j] = res.value().tokens[j];
        have[m][j] = 1;
      }
      done = Later(done, res.value().done);
      continue;
    }
    if (!Reconstructable(res.status().code())) return res.status();
    for (std::uint64_t j = 0; j < slots; ++j) {
      auto sr = members_[m]->Read(IoRequest{off + j * align_, align_, now, {},
                                            /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (sr.ok()) {
        toks[m][j] = sr.value().tokens[0];
        have[m][j] = 1;
        done = Later(done, sr.value().done);
      } else if (!Reconstructable(sr.status().code())) {
        return sr.status();
      }
    }
  }

  const std::uint64_t chunk_idx = off / stripe_;
  for (std::uint64_t j = 0; j < slots; ++j) {
    // The slot authority is the first ACTIVE member holding it: a failed
    // member's content may predate degraded-mode writes, and must never
    // overwrite what an active replica acknowledged. A non-active
    // member's content only fills slots no active member has.
    std::int32_t src = -1;
    for (std::uint32_t m = 0; m < n; ++m) {
      if (part[m] != 0 && have[m][j] != 0 &&
          state_[m] == MemberState::kActive) {
        src = static_cast<std::int32_t>(m);
        break;
      }
    }
    const bool src_active = src >= 0;
    if (src < 0) {
      for (std::uint32_t m = 0; m < n; ++m) {
        if (part[m] != 0 && have[m][j] != 0) {
          src = static_cast<std::int32_t>(m);
          break;
        }
      }
    }
    if (src < 0) continue;  // Legitimately unmapped on every replica.
    for (std::uint32_t m = 0; m < n; ++m) {
      if (part[m] == 0 || static_cast<std::int32_t>(m) == src) continue;
      const bool stale =
          have[m][j] != 0 &&
          toks[m][j] != toks[static_cast<std::uint32_t>(src)][j];
      if (have[m][j] != 0 && !stale) continue;
      if (stale) {
        RecordMismatch(0, chunk_idx, m);
        if (!src_active) {
          // Two non-active replicas disagree and no active replica has
          // the slot: there is no authority to repair from either way.
          scrub_clean_[m] = 0;
          scrub_clean_[static_cast<std::uint32_t>(src)] = 0;
          continue;
        }
      }
      // Conventional media overwrites in place, so both a missing and a
      // divergent slot are repairable.
      auto w = members_[m]->Write(IoRequest{
          off + j * align_, align_, now,
          std::span<const std::uint64_t>(
              &toks[static_cast<std::uint32_t>(src)][j], 1),
          /*want_tokens=*/false,
                  IoClass::kMaintenance});
      if (w.ok()) {
        red_.scrub_repaired_slots++;
        done = Later(done, w.value().done);
      } else {
        if (!stale) RecordMismatch(0, chunk_idx, m);
        scrub_clean_[m] = 0;
      }
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::TickRebuild(SimTime now) {
  SimTime done = now;
  const std::uint64_t mzs = member_info_.zone_size_bytes;

  for (std::uint32_t budget = rows_per_tick_; budget > 0; --budget) {
    if (rebuild_member_ < 0) break;  // A leg failure latched the fresh member.
    const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
    if (zone_bytes_ != 0) {
      if (rebuild_phase_ == 0) {
        if (rebuild_zone_ >= rows_) {
          rebuild_phase_ = 1;
          rebuild_verify_zone_ = 0;
          continue;
        }
        bool content = true;
        auto r = RebuildRow(now, &content);
        if (!r.ok()) return r;
        done = Later(done, r.value());
        if (!content || rebuild_off_ >= mzs) {
          // Zone complete: flush before moving on so a later cut can
          // only tear the zone under copy, never a finished one.
          auto f = members_[m]->Flush(now);
          if (f.ok()) done = Later(done, f.value());
          rebuild_zone_++;
          rebuild_off_ = 0;
          rebuild_fail_streak_ = 0;
        }
      } else if (rebuild_phase_ == 1) {
        if (rebuild_verify_zone_ >= rows_) {
          auto f = members_[m]->Flush(now);
          if (!f.ok()) return f.status();
          done = Later(done, f.value());
          state_[m] = MemberState::kActive;
          rebuild_member_ = -1;
          red_.rebuilds_completed++;
          return done;
        }
        bool hole = false;
        auto r = VerifyRebuildZone(now, &hole);
        if (!r.ok()) return r;
        done = Later(done, r.value());
        if (hole) {
          rebuild_phase_ = 2;  // Re-copy from the shortfall.
        } else {
          rebuild_verify_zone_++;
        }
      } else {  // Phase 2: re-copy the torn zone, then resume the sweep.
        bool content = true;
        auto r = RebuildRow(now, &content);
        if (!r.ok()) return r;
        done = Later(done, r.value());
        if (!content || rebuild_off_ >= mzs) {
          auto f = members_[m]->Flush(now);
          if (f.ok()) done = Later(done, f.value());
          rebuild_phase_ = 1;  // Re-check the same zone, then continue.
          rebuild_off_ = 0;
          rebuild_fail_streak_ = 0;
        }
      }
    } else {
      if (rebuild_phase_ == 0) {
        if (rebuild_off_ >= member_span_) {
          rebuild_phase_ = 1;
          rebuild_off_ = 0;
          continue;
        }
        bool content = true;
        auto r = RebuildConventionalChunk(now, &content);
        if (!r.ok()) return r;
        done = Later(done, r.value());
        rebuild_off_ += stripe_;
      } else {
        if (rebuild_off_ >= member_span_) {
          auto f = members_[m]->Flush(now);
          if (!f.ok()) return f.status();
          done = Later(done, f.value());
          state_[m] = MemberState::kActive;
          rebuild_member_ = -1;
          red_.rebuilds_completed++;
          return done;
        }
        auto r = VerifyConventionalChunk(now);
        if (!r.ok()) return r;
        done = Later(done, r.value());
        rebuild_off_ += stripe_;
      }
    }
  }

  if (rebuild_member_ >= 0) {
    // Tick-boundary durability point: a power cut between ticks can only
    // regress the fresh member to a flushed row prefix, never a torn one.
    auto f = members_[static_cast<std::uint32_t>(rebuild_member_)]->Flush(now);
    if (!f.ok()) return f.status();
    done = Later(done, f.value());
  }
  return done;
}

Status RedundantVolume::SourceZoneSlots(std::uint32_t zr, SimTime now,
                                        std::uint64_t* slots, SimTime* done) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint32_t base = (m / group_) * group_;
  const std::uint64_t mzs = member_info_.zone_size_bytes;
  const std::uint64_t zbase = static_cast<std::uint64_t>(zr) * mzs;
  if (layout_ == RedundancyLayout::kMirror) {
    std::uint64_t best = 0;
    bool any = false;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      const std::uint32_t pm = base + lane;
      if (pm == m || state_[pm] != MemberState::kActive) continue;
      if (members_[pm]->info().health == DeviceHealth::kOffline) {
        return Status::FailedPrecondition("rebuild source is powered off");
      }
      any = true;
      best = std::max(best, ProbePrefix(pm, zbase, mzs, now, done));
    }
    if (!any) return Status::FailedPrecondition("no surviving source for rebuild");
    *slots = best;
  } else {
    std::uint64_t mn = mzs / align_;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      const std::uint32_t pm = base + lane;
      if (pm == m) continue;
      if (state_[pm] != MemberState::kActive) {
        return Status::FailedPrecondition(
            "parity rebuild needs every other lane of the set");
      }
      if (members_[pm]->info().health == DeviceHealth::kOffline) {
        return Status::FailedPrecondition("rebuild source is powered off");
      }
      mn = std::min(mn, ProbePrefix(pm, zbase, mzs, now, done));
    }
    *slots = mn;
  }
  return Status::Ok();
}

Status RedundantVolume::FreshWriteFailed(Status leg, SimTime now, SimTime* done) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  if (members_[m]->info().health == DeviceHealth::kOffline) {
    return leg;  // Caller must Recover() the member and Tick again.
  }
  const std::uint32_t zr =
      rebuild_phase_ == 2 ? rebuild_verify_zone_ : rebuild_zone_;
  const std::uint64_t mzs = member_info_.zone_size_bytes;
  rebuild_fail_streak_++;
  if (rebuild_fail_streak_ == 1) {
    // A survived power cut regressed the zone below the cursor: resync
    // to the durable prefix and continue from there — never a torn row.
    rebuild_off_ =
        ProbePrefix(m, static_cast<std::uint64_t>(zr) * mzs, mzs, now, done) *
        align_;
    red_.rebuild_zone_restarts++;
    return Status::Ok();
  }
  if (rebuild_fail_streak_ == 2) {
    auto r = members_[m]->ResetZone(ZoneId{zr}, now);
    if (!r.ok()) return r.status();
    *done = Later(*done, r.value());
    rebuild_off_ = 0;
    red_.rebuild_zone_restarts++;
    return Status::Ok();
  }
  return Status::Internal("rebuild cannot make progress on member zone " +
                          std::to_string(zr));
}

Result<SimTime> RedundantVolume::RebuildRow(SimTime now, bool* content) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint32_t zr =
      rebuild_phase_ == 2 ? rebuild_verify_zone_ : rebuild_zone_;
  const std::uint32_t base = (m / group_) * group_;
  const std::uint64_t mzs = member_info_.zone_size_bytes;
  const std::uint64_t off = rebuild_off_;
  const std::uint64_t span = std::min(stripe_ - off % stripe_, mzs - off);
  const std::uint64_t moff = static_cast<std::uint64_t>(zr) * mzs + off;
  SimTime done = now;
  *content = true;

  std::vector<std::uint64_t> data;
  if (layout_ == RedundancyLayout::kMirror) {
    std::int32_t peer0 = -1;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      const std::uint32_t pm = base + lane;
      if (pm == m || state_[pm] != MemberState::kActive) continue;
      if (members_[pm]->info().health == DeviceHealth::kOffline) {
        return Status::FailedPrecondition("rebuild source is powered off");
      }
      if (peer0 < 0) peer0 = static_cast<std::int32_t>(pm);
    }
    if (peer0 < 0) {
      return Status::FailedPrecondition("no surviving source for rebuild");
    }
    auto res = members_[static_cast<std::uint32_t>(peer0)]->Read(
        IoRequest{moff, span, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    if (res.ok()) {
      data = std::move(res.value().tokens);
      done = Later(done, res.value().done);
    } else if (!Reconstructable(res.status().code())) {
      return res.status();
    } else {
      // Near the content end (or a lagging first peer): take the row
      // from whichever surviving replica holds the most of it.
      std::uint64_t best = 0;
      std::int32_t bm = -1;
      for (std::uint32_t lane = 0; lane < group_; ++lane) {
        const std::uint32_t pm = base + lane;
        if (pm == m || state_[pm] != MemberState::kActive) continue;
        const std::uint64_t p = ProbePrefix(pm, moff, span, now, &done);
        if (p > best) {
          best = p;
          bm = static_cast<std::int32_t>(pm);
        }
      }
      if (best == 0) {
        *content = false;  // The zone's durable content ends here.
        return done;
      }
      auto rr = members_[static_cast<std::uint32_t>(bm)]->Read(
          IoRequest{moff, best * align_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (!rr.ok()) return rr.status();
      data = std::move(rr.value().tokens);
      done = Later(done, rr.value().done);
      if (best * align_ < span) *content = false;
    }
  } else {
    // Parity: the lost lane — data or parity alike — is the XOR of all
    // other lanes, bounded by the shortest surviving prefix.
    std::vector<std::vector<std::uint64_t>> lt;
    std::uint64_t min_p = span / align_;
    for (std::uint32_t lane = 0; lane < group_; ++lane) {
      const std::uint32_t pm = base + lane;
      if (pm == m) continue;
      if (state_[pm] != MemberState::kActive) {
        return Status::FailedPrecondition(
            "parity rebuild needs every other lane of the set");
      }
      if (members_[pm]->info().health == DeviceHealth::kOffline) {
        return Status::FailedPrecondition("rebuild source is powered off");
      }
      auto res = members_[pm]->Read(
          IoRequest{moff, span, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (res.ok()) {
        lt.push_back(std::move(res.value().tokens));
        done = Later(done, res.value().done);
        continue;
      }
      if (!Reconstructable(res.status().code())) return res.status();
      const std::uint64_t p = ProbePrefix(pm, moff, span, now, &done);
      min_p = std::min(min_p, p);
      if (p > 0) {
        auto rr = members_[pm]->Read(
            IoRequest{moff, p * align_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
        if (!rr.ok()) return rr.status();
        lt.push_back(std::move(rr.value().tokens));
        done = Later(done, rr.value().done);
      } else {
        lt.emplace_back();
      }
    }
    if (min_p == 0) {
      *content = false;
      return done;
    }
    data.assign(min_p, 0);
    for (const auto& v : lt) {
      for (std::uint64_t j = 0; j < min_p; ++j) data[j] ^= v[j];
    }
    if (min_p * align_ < span) *content = false;
  }

  auto w = members_[m]->Write(IoRequest{
      moff, data.size() * align_, now, std::span<const std::uint64_t>(data),
      /*want_tokens=*/false,
                  IoClass::kMaintenance});
  if (!w.ok()) {
    if (Status st = FreshWriteFailed(w.status(), now, &done); !st.ok()) {
      return st;
    }
    *content = true;  // Cursor was resynced; retry from there next round.
    return done;
  }
  rebuild_fail_streak_ = 0;
  done = Later(done, w.value().done);
  red_.rebuild_slots_copied += data.size();
  rebuild_off_ += data.size() * align_;
  return done;
}

Result<SimTime> RedundantVolume::VerifyRebuildZone(SimTime now, bool* hole) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint32_t zr = rebuild_verify_zone_;
  const std::uint64_t mzs = member_info_.zone_size_bytes;
  SimTime done = now;
  std::uint64_t src_slots = 0;
  if (Status st = SourceZoneSlots(zr, now, &src_slots, &done); !st.ok()) {
    return st;
  }
  const std::uint64_t fresh_slots =
      ProbePrefix(m, static_cast<std::uint64_t>(zr) * mzs, mzs, now, &done);
  if (fresh_slots < src_slots) {
    // A power cut tore rebuilt ground behind the cursor (programs from
    // one tick complete out of submission order across dies, so even a
    // zone-boundary flush cannot fully order durability). Re-enter the
    // copy phase at the durable prefix.
    *hole = true;
    rebuild_off_ = fresh_slots * align_;
    rebuild_fail_streak_ = 0;
    red_.rebuild_zone_restarts++;
  } else {
    *hole = false;
  }
  return done;
}

Result<SimTime> RedundantVolume::RebuildConventionalChunk(SimTime now,
                                                          bool* content) {
  *content = true;
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint64_t off = rebuild_off_;
  const std::uint64_t chunk = std::min(stripe_, member_span_ - off);
  const std::uint64_t slots = chunk / align_;
  SimTime done = now;

  target_scratch_.clear();
  for (std::uint32_t pm = 0; pm < members_.size(); ++pm) {
    if (pm == m || state_[pm] != MemberState::kActive) continue;
    if (members_[pm]->info().health == DeviceHealth::kOffline) {
      return Status::FailedPrecondition("rebuild source is powered off");
    }
    target_scratch_.push_back(pm);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no surviving source for rebuild");
  }

  auto res = members_[target_scratch_[0]]->Read(
      IoRequest{off, chunk, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
  if (res.ok()) {
    auto w = members_[m]->Write(
        IoRequest{off, chunk, now,
                  std::span<const std::uint64_t>(res.value().tokens),
                  /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (!w.ok()) return w.status();
    done = Later(done, res.value().done);
    done = Later(done, w.value().done);
    red_.rebuild_slots_copied += slots;
    return done;
  }
  if (!Reconstructable(res.status().code())) return res.status();

  // Sparse ground: copy slot by slot, first replica that has it wins;
  // slots unmapped everywhere stay unmapped on the fresh member too.
  for (std::uint64_t j = 0; j < slots; ++j) {
    for (std::uint32_t pm : target_scratch_) {
      auto sr = members_[pm]->Read(
          IoRequest{off + j * align_, align_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (sr.ok()) {
        auto w = members_[m]->Write(IoRequest{
            off + j * align_, align_, now,
            std::span<const std::uint64_t>(&sr.value().tokens[0], 1),
            /*want_tokens=*/false,
                  IoClass::kMaintenance});
        if (!w.ok()) return w.status();
        done = Later(done, sr.value().done);
        done = Later(done, w.value().done);
        red_.rebuild_slots_copied++;
        break;
      }
      if (!Reconstructable(sr.status().code())) return sr.status();
    }
  }
  return done;
}

Result<SimTime> RedundantVolume::VerifyConventionalChunk(SimTime now) {
  const std::uint32_t m = static_cast<std::uint32_t>(rebuild_member_);
  const std::uint64_t off = rebuild_off_;
  const std::uint64_t chunk = std::min(stripe_, member_span_ - off);
  const std::uint64_t slots = chunk / align_;
  SimTime done = now;

  target_scratch_.clear();
  for (std::uint32_t pm = 0; pm < members_.size(); ++pm) {
    if (pm == m || state_[pm] != MemberState::kActive) continue;
    if (members_[pm]->info().health == DeviceHealth::kOffline) {
      return Status::FailedPrecondition("rebuild source is powered off");
    }
    target_scratch_.push_back(pm);
  }
  if (target_scratch_.empty()) {
    return Status::FailedPrecondition("no surviving source for rebuild");
  }

  for (std::uint64_t j = 0; j < slots; ++j) {
    std::uint64_t want = 0;
    bool mapped = false;
    for (std::uint32_t pm : target_scratch_) {
      auto sr = members_[pm]->Read(
          IoRequest{off + j * align_, align_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
      if (sr.ok()) {
        want = sr.value().tokens[0];
        mapped = true;
        done = Later(done, sr.value().done);
        break;
      }
      if (!Reconstructable(sr.status().code())) return sr.status();
    }
    if (!mapped) continue;
    auto fr = members_[m]->Read(
        IoRequest{off + j * align_, align_, now, {}, /*want_tokens=*/true,
                  IoClass::kMaintenance});
    bool repair = true;
    if (fr.ok()) {
      repair = fr.value().tokens[0] != want;
      done = Later(done, fr.value().done);
    } else if (!Reconstructable(fr.status().code())) {
      return fr.status();
    }
    if (!repair) continue;
    auto w = members_[m]->Write(
        IoRequest{off + j * align_, align_, now,
                  std::span<const std::uint64_t>(&want, 1),
                  /*want_tokens=*/false,
                  IoClass::kMaintenance});
    if (!w.ok()) return w.status();
    done = Later(done, w.value().done);
    red_.rebuild_slots_copied++;
  }
  return done;
}

}  // namespace conzone
