//! The attack generator: turns the timeline, shape distributions and
//! campaign schedule into the ground-truth attack population for the
//! whole study window.

use crate::attack::{AttackClass, AttackId, AttackVector};
use crate::campaigns::{random_campaigns, scripted_campaigns, Campaign, CampaignScope};
use crate::columns::{AttackColumns, AttackRef};
use crate::shape::ShapeParams;
use crate::timeline::TimelineParams;
use netmodel::{Asn, InternetPlan, Ipv4, Rir};
use serde::{Deserialize, Serialize};
use simcore::dist::{log_normal, poisson};
use simcore::{ExecPool, SimRng, SimTime, STUDY_DAYS, STUDY_WEEKS};

/// Full generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenConfig {
    pub timeline: TimelineParams,
    pub shape: ShapeParams,
    /// Number of random filler campaigns layered over the scripted ones.
    pub random_campaign_count: usize,
    /// Global multiplier on campaign weekly rates. Scaled-down test
    /// studies set this below 1 so campaign peaks keep their size
    /// *relative* to the baselines.
    pub campaign_rate_scale: f64,
    /// Acceptance probability for direct-path attacks on Akamai-protected
    /// targets at study start / end. The decline reproduces Akamai's
    /// downward DP trend (Fig. 2(d)) against a globally rising DP volume
    /// (§6.3: the Prolexic rerouting requirement "will affect attack
    /// methodologies and trends in their data").
    pub akamai_dp_accept_start: f64,
    pub akamai_dp_accept_end: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            timeline: TimelineParams::default(),
            shape: ShapeParams::default(),
            random_campaign_count: 18,
            campaign_rate_scale: 1.0,
            akamai_dp_accept_start: 1.0,
            akamai_dp_accept_end: 0.10,
        }
    }
}

/// Generates the ground-truth attack stream.
pub struct AttackGenerator<'a> {
    plan: &'a InternetPlan,
    cfg: GenConfig,
    campaigns: Vec<Campaign>,
    /// Target-selection weights, index-aligned with the registry.
    weights: Vec<f64>,
    /// `weights.iter().sum()`, summed once rather than on every draw.
    weights_total: f64,
    /// AS indices grouped by allocation RIR (for regional campaigns).
    by_rir: Vec<(Rir, Vec<usize>)>,
    /// AS indices of IXP members outside Netscout's customer base.
    ixp_only: Vec<usize>,
    /// Root of the per-week RNG streams: week `w` draws exclusively
    /// from `week_root.fork(w)`, so weeks generate independently — in
    /// any order, on any worker — with identical output.
    week_root: SimRng,
}

/// Per-week mutable generation state. Everything stochastic about one
/// week lives here, which is what lets [`AttackGenerator::generate_week`]
/// be `&self` and weeks run concurrently.
struct WeekCtx {
    rng: SimRng,
    next_id: u64,
}

impl WeekCtx {
    fn next_attack_id(&mut self) -> AttackId {
        let id = AttackId(self.next_id);
        self.next_id += 1;
        id
    }
}

/// The fields of a row drawn after its class and vector are known: the
/// part a companion attack samples exactly as a standalone one does.
struct Shape {
    duration_secs: u32,
    pps: f64,
    bps: f64,
    reflector_count: Option<u32>,
    spoof_space_fraction: f64,
}

impl<'a> AttackGenerator<'a> {
    pub fn new(plan: &'a InternetPlan, cfg: GenConfig, rng: &SimRng) -> Self {
        let mut rng = rng.fork_named("attack-generator");
        let mut campaigns = scripted_campaigns();
        campaigns.extend(random_campaigns(plan, cfg.random_campaign_count, &mut rng));
        let weights = plan.registry.target_weights();
        let weights_total: f64 = weights.iter().sum();
        assert!(
            weights_total > 0.0 && weights_total.is_finite(),
            "target weights must sum to a positive finite value"
        );
        let mut by_rir: Vec<(Rir, Vec<usize>)> = [
            Rir::Arin,
            Rir::RipeNcc,
            Rir::Apnic,
            Rir::Lacnic,
            Rir::Afrinic,
        ]
        .iter()
        .map(|&r| (r, Vec::new()))
        .collect();
        for (idx, rec) in plan.registry.iter().enumerate() {
            if rec.target_weight <= 0.0 || rec.prefixes.is_empty() {
                continue;
            }
            if let Some(alloc) = plan.allocation_of(rec.prefixes[0].base()) {
                if let Some(slot) = by_rir.iter_mut().find(|(r, _)| *r == alloc.rir) {
                    slot.1.push(idx);
                }
            }
        }
        let ixp_only = plan
            .registry
            .iter()
            .enumerate()
            .filter(|(_, rec)| {
                rec.target_weight > 0.0
                    && plan.ixp_members.contains(&rec.asn)
                    && !plan.netscout_customers.contains(&rec.asn)
            })
            .map(|(idx, _)| idx)
            .collect();
        let week_root = rng.fork_named("week");
        AttackGenerator {
            plan,
            cfg,
            campaigns,
            weights,
            weights_total,
            by_rir,
            ixp_only,
            week_root,
        }
    }

    /// The campaign schedule in effect.
    pub fn campaigns(&self) -> &[Campaign] {
        &self.campaigns
    }

    /// Generate the study with weeks fanned out across `pool`, directly
    /// into columnar storage.
    ///
    /// Weeks draw from independent forks of `week_root`, so they can be
    /// generated in any order; shards are merged back in week order
    /// with ids rebased to the concatenated position — exactly the ids
    /// a serial week-by-week pass assigns. The output is bitwise
    /// identical for 1, 2, or N workers and for any shard size.
    ///
    /// Memory discipline (the 10M+ scale path): each worker sorts its
    /// own shard by `(start, id)` while it is small, and the ordered
    /// streaming fold hands shards to
    /// [`AttackColumns::merge_sorted_shard`] *as they complete*, each
    /// one freed the moment it is spliced in. Consecutive shards
    /// overlap only in the ≤ 30-minute companion spill past a week
    /// boundary, which the merge holds in a tiny carry buffer — so the
    /// study never materializes more than the merged population plus
    /// the shards currently in flight, and no global end-of-run sort
    /// (with its column-sized scratch buffers) is needed at all.
    pub fn generate_study_on(&self, pool: &ExecPool) -> AttackColumns {
        let _span = obs::span!("generate");
        let per_week = obs::metrics::histogram("gen.attacks_per_week", &obs::metrics::COUNTS);
        let forks = obs::metrics::counter("gen.rng_forks");
        let weeks: Vec<i64> = (0..STUDY_WEEKS as i64).collect();
        // Capped at 8 weeks per shard: the merge's high-water mark is
        // the population plus the shards in flight, so shard size —
        // not worker count — is the memory knob. (The output is
        // invariant to the chunking; only the peak moves.)
        let chunk = simcore::pool::shard_size(weeks.len(), pool.workers()).min(8);

        struct Merge {
            out: AttackColumns,
            carry: AttackColumns,
            assigned: u64,
        }
        let merged = pool.par_chunks_fold(
            &weeks,
            chunk,
            |_, shard| {
                let mut out = AttackColumns::new();
                for &week in shard {
                    // Each week forks exactly one stream off `week_root`.
                    forks.inc();
                    let before = out.len();
                    self.generate_week(week, &mut out);
                    per_week.record((out.len() - before) as u64);
                }
                out.sort_by_start_id();
                out
            },
            Merge {
                out: AttackColumns::new(),
                carry: AttackColumns::new(),
                assigned: 0,
            },
            |m, idx, shard| {
                // Rows at or past the next shard's first week are held
                // back and spliced into that shard when it lands.
                let next_week = (idx + 1) * chunk;
                let bound = (next_week < weeks.len())
                    .then(|| SimTime::from_weeks(weeks[next_week]).0 as u32);
                let base = m.assigned;
                m.assigned += shard.len() as u64;
                m.out.merge_sorted_shard(shard, base, &mut m.carry, bound);
            },
        );
        debug_assert!(merged.carry.is_empty(), "final shard must drain the carry");
        debug_assert!(merged.out.is_sorted_by_start_id());
        let mut out = merged.out;
        out.shrink_to_fit();
        obs::metrics::counter("gen.weeks").add(weeks.len() as u64);
        obs::metrics::counter("gen.attacks").add(out.len() as u64);
        out
    }

    /// Generate one study week into `out`. Ids continue from
    /// `out.len()`, so accumulating weeks serially into one column set
    /// and concatenating independently generated weeks agree exactly.
    pub fn generate_week(&self, week: i64, out: &mut AttackColumns) {
        let mut ctx = WeekCtx {
            rng: self.week_root.fork(week as u64),
            next_id: out.len() as u64,
        };
        let week_start = SimTime::from_weeks(week);
        // The trailing study week is partial: scale the rate.
        let days_in_week = (STUDY_DAYS - week * 7).clamp(0, 7);
        if days_in_week == 0 {
            return;
        }
        let frac = days_in_week as f64 / 7.0;
        let mid = week_start.plus_days(days_in_week / 2);
        // Every row of the week borrows its targets from this buffer
        // until `push` copies them into the arena.
        let mut targets = Vec::new();

        for class in [
            AttackClass::DirectPathSpoofed,
            AttackClass::DirectPathNonSpoofed,
            AttackClass::ReflectionAmplification,
        ] {
            let sigma = self.cfg.timeline.noise_sigma;
            // Mean-one multiplicative noise.
            let noise = log_normal(&mut ctx.rng, -sigma * sigma / 2.0, sigma);
            let rate = self.cfg.timeline.weekly_rate(class, mid) * noise * frac;
            let n = poisson(&mut ctx.rng, rate);
            for _ in 0..n {
                let start = self.uniform_start(&mut ctx, week_start, days_in_week);
                if let Some(a) = self.sample_attack(&mut ctx, &mut targets, class, start, None) {
                    self.maybe_companion(&mut ctx, a, out);
                    out.push(a);
                }
            }
        }

        for c in &self.campaigns {
            if !c.active_at(mid) {
                continue;
            }
            let n = poisson(
                &mut ctx.rng,
                c.weekly_rate * self.cfg.campaign_rate_scale * frac,
            );
            for _ in 0..n {
                let start = self.uniform_start(&mut ctx, week_start, days_in_week);
                if let Some(a) = self.sample_attack(&mut ctx, &mut targets, c.class, start, Some(c))
                {
                    out.push(a);
                }
            }
        }
    }

    fn uniform_start(&self, ctx: &mut WeekCtx, week_start: SimTime, days: i64) -> SimTime {
        week_start.plus_secs(ctx.rng.u64_below((days * 86_400) as u64) as i64)
    }

    /// Sample one attack of the given class starting at `start`, its
    /// targets written over `targets`. Returns `None` only if target
    /// selection fails (empty scope).
    fn sample_attack<'t>(
        &self,
        ctx: &mut WeekCtx,
        targets: &'t mut Vec<Ipv4>,
        class: AttackClass,
        start: SimTime,
        campaign: Option<&Campaign>,
    ) -> Option<AttackRef<'t>> {
        let (target, asn) = self.pick_target(ctx, class, start, campaign.map(|c| &c.scope))?;
        let vector = match campaign {
            Some(c) => c.vector,
            None => self.pick_vector(ctx, class, start),
        };
        let carpet = match campaign {
            Some(c) => c.carpet,
            None => {
                class == AttackClass::ReflectionAmplification
                    && ctx.rng.chance(self.cfg.shape.carpet_probability)
            }
        };
        targets.clear();
        if carpet {
            let width_range = campaign.and_then(|c| c.carpet_width);
            self.carpet_targets(ctx, target, width_range, targets);
        } else {
            targets.push(target);
        }
        let pps_scale = campaign.map(|c| c.pps_scale).unwrap_or(1.0);
        let shape = self.sample_shape(ctx, class, vector, pps_scale);
        Some(AttackRef {
            id: ctx.next_attack_id(),
            class,
            vector,
            start,
            duration_secs: shape.duration_secs,
            targets,
            target_asn: asn,
            pps: shape.pps,
            bps: shape.bps,
            reflector_count: shape.reflector_count,
            spoof_space_fraction: shape.spoof_space_fraction,
            campaign: campaign.map(|c| c.id),
        })
    }

    /// With small probability, attach a companion attack of the other
    /// class against the same primary target (multi-vector attacks,
    /// §7.1). The companion row precedes its parent in the columns.
    fn maybe_companion(&self, ctx: &mut WeekCtx, a: AttackRef<'_>, out: &mut AttackColumns) {
        if !ctx.rng.chance(self.cfg.shape.multi_class_probability) {
            return;
        }
        let class = if a.class.is_reflection() {
            AttackClass::DirectPathSpoofed
        } else {
            AttackClass::ReflectionAmplification
        };
        let vector = self.pick_vector(ctx, class, a.start);
        let shape = self.sample_shape(ctx, class, vector, 1.0);
        out.push(AttackRef {
            id: ctx.next_attack_id(),
            class,
            vector,
            // Same day, shortly after: the victim is hit with both
            // classes, which the cross-observatory target join sees as a
            // same-(date, IP) tuple.
            start: a.start.plus_secs(ctx.rng.u64_below(1800) as i64),
            duration_secs: shape.duration_secs,
            targets: &a.targets[..1],
            target_asn: a.target_asn,
            pps: shape.pps,
            bps: shape.bps,
            reflector_count: shape.reflector_count,
            spoof_space_fraction: shape.spoof_space_fraction,
            campaign: a.campaign,
        });
    }

    /// Draw a row's duration, packet rate (times `pps_scale`: a
    /// campaign's, 1.0 otherwise), bit rate, reflector count and spoofed
    /// space, in that order.
    fn sample_shape(
        &self,
        ctx: &mut WeekCtx,
        class: AttackClass,
        vector: AttackVector,
        pps_scale: f64,
    ) -> Shape {
        let duration_secs = self.cfg.shape.sample_duration(&mut ctx.rng);
        let pps = self.cfg.shape.sample_pps(&mut ctx.rng) * pps_scale;
        let bps = match vector.amp_vector() {
            Some(v) => pps * v.response_bytes() as f64 * 8.0,
            None => self.cfg.shape.pps_to_bps(pps),
        };
        let reflector_count = vector.amp_vector().map(|v| {
            let pool = *self.plan.reflector_pools.get(&v).unwrap_or(&1);
            self.cfg.shape.sample_reflector_count(pool, &mut ctx.rng)
        });
        let spoof_space_fraction = match class {
            AttackClass::DirectPathSpoofed => self.cfg.shape.sample_spoof_space(&mut ctx.rng),
            // RA spoofs exactly the victim address; non-spoofed DP does
            // not spoof. Neither rotates over the address space.
            _ => 0.0,
        };
        Shape {
            duration_secs,
            pps,
            bps,
            reflector_count,
            spoof_space_fraction,
        }
    }

    fn pick_vector(&self, ctx: &mut WeekCtx, class: AttackClass, t: SimTime) -> AttackVector {
        match class {
            AttackClass::DirectPathSpoofed => {
                match ctx.rng.weighted_index(&[0.70, 0.20, 0.10]) {
                    0 => AttackVector::SynFlood,
                    1 => AttackVector::UdpFlood,
                    _ => AttackVector::IcmpFlood,
                }
            }
            AttackClass::DirectPathNonSpoofed => {
                // L7 attacks grow over the study (§3: several vendors
                // reported substantial L7 increases).
                let l7 = 0.3 + 0.3 * simcore::dist::smoothstep(t.years_f64() / 4.5);
                if ctx.rng.chance(l7) {
                    AttackVector::HttpFlood
                } else if ctx.rng.chance(0.8) {
                    AttackVector::SynFlood
                } else {
                    AttackVector::UdpFlood
                }
            }
            AttackClass::ReflectionAmplification => {
                let mix = self.cfg.timeline.vector_mix(t);
                let weights = mix.map(|(_, w)| w);
                AttackVector::Amplification(mix[ctx.rng.weighted_index(&weights)].0)
            }
        }
    }

    /// Pick a target address (and its AS), honoring campaign scopes and
    /// the Akamai avoidance dynamic.
    fn pick_target(
        &self,
        ctx: &mut WeekCtx,
        class: AttackClass,
        t: SimTime,
        scope: Option<&CampaignScope>,
    ) -> Option<(Ipv4, Asn)> {
        match scope {
            Some(CampaignScope::SingleAs(asn)) => {
                let ip = self.plan.random_ip_in_asn(*asn, &mut ctx.rng)?;
                Some((ip, *asn))
            }
            Some(CampaignScope::Region(rir)) => {
                let indices = &self.by_rir.iter().find(|(r, _)| r == rir)?.1;
                if indices.is_empty() {
                    return None;
                }
                let idx = indices[ctx.rng.usize_below(indices.len())];
                let asn = self.plan.registry.by_index(idx).asn;
                let ip = self.plan.random_ip_in_asn(asn, &mut ctx.rng)?;
                Some((ip, asn))
            }
            Some(CampaignScope::IxpMembersOnly) => {
                if self.ixp_only.is_empty() {
                    return None;
                }
                let idx = self.ixp_only[ctx.rng.usize_below(self.ixp_only.len())];
                let asn = self.plan.registry.by_index(idx).asn;
                let ip = self.plan.random_ip_in_asn(asn, &mut ctx.rng)?;
                Some((ip, asn))
            }
            Some(CampaignScope::AkamaiProtected) => {
                if self.plan.akamai_prefix_list.is_empty() {
                    return None;
                }
                let p = *ctx.rng.choose(&self.plan.akamai_prefix_list);
                let ip = p.nth(ctx.rng.u64_below(p.size()));
                let asn = self.plan.asn_of(ip)?;
                Some((ip, asn))
            }
            None => {
                // Weighted AS, with DP attacks progressively avoiding
                // Akamai-protected space.
                for _ in 0..6 {
                    let idx = ctx
                        .rng
                        .weighted_index_of_total(&self.weights, self.weights_total);
                    let asn = self.plan.registry.by_index(idx).asn;
                    let Some(ip) = self.plan.random_ip_in_asn(asn, &mut ctx.rng) else {
                        continue;
                    };
                    if class.is_direct_path() && self.plan.akamai_protects(ip) {
                        let progress = (t.years_f64() / 4.5).clamp(0.0, 1.0);
                        let accept = self.cfg.akamai_dp_accept_start
                            + (self.cfg.akamai_dp_accept_end - self.cfg.akamai_dp_accept_start)
                                * progress;
                        if !ctx.rng.chance(accept) {
                            continue;
                        }
                    }
                    return Some((ip, asn));
                }
                // Fall back to any weighted target.
                let idx = ctx
                    .rng
                    .weighted_index_of_total(&self.weights, self.weights_total);
                let asn = self.plan.registry.by_index(idx).asn;
                let ip = self.plan.random_ip_in_asn(asn, &mut ctx.rng)?;
                Some((ip, asn))
            }
        }
    }

    /// Append a carpet-bombing target list to `out`: consecutive
    /// addresses inside the victim's routed prefix (Appendix I: attacks
    /// spread within one BGP-routed block; region-wide campaigns emerge
    /// from many such attacks).
    fn carpet_targets(
        &self,
        ctx: &mut WeekCtx,
        seed_ip: Ipv4,
        width_range: Option<(u32, u32)>,
        out: &mut Vec<Ipv4>,
    ) {
        let width = match width_range {
            Some((lo, hi)) => ctx.rng.u64_range(lo as u64, hi as u64),
            None => self.cfg.shape.sample_carpet_width(&mut ctx.rng) as u64,
        };
        let prefix = self
            .plan
            .routed_prefix_of(seed_ip)
            .unwrap_or(netmodel::Prefix::new(seed_ip, 24));
        let span = prefix.size().min(4096);
        let width = width.min(span);
        let max_offset = span - width;
        let base_off = if max_offset > 0 {
            ctx.rng.u64_below(max_offset + 1)
        } else {
            0
        };
        // Anchor inside the covering prefix, stepping consecutively.
        let anchor = prefix.nth(base_off);
        out.extend((0..width).map(|i| Ipv4(anchor.0 + i as u32)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::AttackRef;
    use netmodel::NetScale;

    use std::sync::OnceLock;

    fn small_plan() -> &'static InternetPlan {
        static PLAN: OnceLock<InternetPlan> = OnceLock::new();
        PLAN.get_or_init(|| {
            let mut rng = SimRng::new(42);
            InternetPlan::build(&NetScale::tiny(), &mut rng)
        })
    }

    /// Shared study for the read-only assertions below (regenerating it
    /// per test would dominate the suite's runtime).
    fn shared_study() -> &'static AttackColumns {
        static STUDY: OnceLock<AttackColumns> = OnceLock::new();
        STUDY.get_or_init(|| {
            let rng = SimRng::new(5);
            AttackGenerator::new(small_plan(), small_cfg(), &rng)
                .generate_study_on(&ExecPool::serial())
        })
    }

    /// Weekly ground-truth attack counts per class
    /// (DP-spoofed, DP-non-spoofed, RA).
    fn weekly_class_counts<'a>(attacks: impl IntoIterator<Item = AttackRef<'a>>) -> Vec<[u64; 3]> {
        let mut out = vec![[0u64; 3]; STUDY_WEEKS];
        for a in attacks {
            let w = a.start.week_index();
            if w < 0 || w >= STUDY_WEEKS as i64 {
                continue;
            }
            let slot = match a.class {
                AttackClass::DirectPathSpoofed => 0,
                AttackClass::DirectPathNonSpoofed => 1,
                AttackClass::ReflectionAmplification => 2,
            };
            out[w as usize][slot] += 1;
        }
        out
    }

    fn small_cfg() -> GenConfig {
        let mut cfg = GenConfig::default();
        // Shrink for unit tests.
        cfg.timeline.dp_base_per_week = 60.0;
        cfg.timeline.ra_base_per_week = 90.0;
        cfg.random_campaign_count = 4;
        cfg
    }

    #[test]
    fn deterministic_generation() {
        let plan = small_plan();
        let rng = SimRng::new(5);
        let a =
            AttackGenerator::new(plan, small_cfg(), &rng).generate_study_on(&ExecPool::serial());
        let b = shared_study();
        // Column-wise equality is the strongest form: every field of
        // every record, including the shared target arena, must agree.
        assert_eq!(&a, b);
    }

    #[test]
    fn parallel_weeks_match_serial() {
        let plan = small_plan();
        let rng = SimRng::new(5);
        let gen = AttackGenerator::new(plan, small_cfg(), &rng);
        let serial = gen.generate_study_on(&simcore::ExecPool::serial());
        for workers in [2, 4] {
            let par = gen.generate_study_on(&simcore::ExecPool::new(workers));
            assert_eq!(serial, par, "workers={workers}");
        }
    }

    #[test]
    fn attacks_sorted_and_inside_study() {
        let attacks = shared_study();
        assert!(attacks.len() > 10_000, "got {}", attacks.len());
        for w in attacks.start_secs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(attacks.iter().all(|a| a.start.in_study()));
    }

    #[test]
    fn ids_unique() {
        let attacks = shared_study();
        let mut ids: Vec<u32> = attacks.id.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), attacks.len());
    }

    #[test]
    fn class_invariants() {
        let attacks = shared_study();
        for a in attacks.iter() {
            match a.class {
                AttackClass::ReflectionAmplification => {
                    assert!(a.reflector_count.is_some(), "RA without reflectors");
                    assert!(a.vector.amp_vector().is_some());
                    assert_eq!(a.spoof_space_fraction, 0.0);
                }
                AttackClass::DirectPathSpoofed => {
                    assert!(a.reflector_count.is_none());
                    assert!(a.spoof_space_fraction > 0.0);
                }
                AttackClass::DirectPathNonSpoofed => {
                    assert!(a.reflector_count.is_none());
                    assert_eq!(a.spoof_space_fraction, 0.0);
                }
            }
            assert!(!a.targets.is_empty());
            assert!(a.pps > 0.0 && a.bps > 0.0);
            assert!(a.duration_secs >= 30);
        }
    }

    #[test]
    fn carpet_attacks_exist_and_are_contiguous() {
        let attacks = shared_study();
        let carpets: Vec<AttackRef> = attacks.iter().filter(|a| a.is_carpet_bombing()).collect();
        assert!(!carpets.is_empty());
        for c in carpets {
            for pair in c.targets.windows(2) {
                assert_eq!(pair[1].0, pair[0].0 + 1, "carpet not contiguous");
            }
        }
    }

    #[test]
    fn multi_class_companions_present() {
        let attacks = shared_study();
        // Count (day, ip) pairs hit by both classes.
        use std::collections::HashMap;
        let mut seen: HashMap<(i64, Ipv4), (bool, bool)> = HashMap::new();
        for a in attacks.iter() {
            let e = seen
                .entry((a.start.day_index(), a.primary_target()))
                .or_default();
            if a.class.is_reflection() {
                e.1 = true;
            } else {
                e.0 = true;
            }
        }
        let both = seen.values().filter(|(d, r)| *d && *r).count();
        let frac = both as f64 / seen.len() as f64;
        assert!(frac > 0.005 && frac < 0.10, "multi-class fraction {frac}");
    }

    #[test]
    fn ra_shifts_to_dp_over_time() {
        // Baseline dynamics only — the scaled-down test baselines would
        // otherwise be drowned out by fixed-rate campaigns.
        let weekly =
            weekly_class_counts(shared_study().iter().filter(|a| a.campaign.is_none()));
        let dp_2019: u64 = weekly[..26].iter().map(|w| w[0] + w[1]).sum();
        let ra_2019: u64 = weekly[..26].iter().map(|w| w[2]).sum();
        let dp_2022: u64 = weekly[160..186].iter().map(|w| w[0] + w[1]).sum();
        let ra_2022: u64 = weekly[160..186].iter().map(|w| w[2]).sum();
        assert!(ra_2019 > dp_2019, "RA should dominate 2019");
        assert!(dp_2022 > ra_2022, "DP should dominate 2022");
    }

    #[test]
    fn campaign_attacks_tagged_and_scoped() {
        let plan = small_plan();
        let attacks = shared_study();
        let brazil: Vec<AttackRef> = attacks
            .iter()
            .filter(|a| a.campaign == Some(0))
            .collect();
        assert!(!brazil.is_empty(), "brazil campaign generated nothing");
        for a in &brazil {
            assert!(a.is_carpet_bombing());
            assert_eq!(
                a.vector,
                AttackVector::Amplification(netmodel::AmpVector::Ssdp)
            );
            let alloc = plan.allocation_of(a.primary_target()).unwrap();
            assert_eq!(alloc.rir, Rir::Lacnic);
        }
    }

    #[test]
    fn akamai_dp_share_declines() {
        let plan = small_plan();
        let attacks = shared_study();
        let dp_share_protected = |lo: i64, hi: i64| {
            let dp: Vec<AttackRef> = attacks
                .iter()
                .filter(|a| {
                    a.class.is_direct_path()
                        && a.campaign.is_none()
                        && a.start.week_index() >= lo
                        && a.start.week_index() < hi
                })
                .collect();
            let protected = dp
                .iter()
                .filter(|a| plan.akamai_protects(a.primary_target()))
                .count();
            protected as f64 / dp.len().max(1) as f64
        };
        let early = dp_share_protected(0, 52);
        let late = dp_share_protected(182, 234);
        assert!(
            late < early,
            "Akamai-protected DP share should decline ({early} -> {late})"
        );
    }

    #[test]
    fn weekly_counts_cover_all_weeks() {
        let attacks = shared_study();
        let weekly = weekly_class_counts(attacks.iter());
        assert_eq!(weekly.len(), STUDY_WEEKS);
        let empty_weeks = weekly
            .iter()
            .filter(|w| w.iter().sum::<u64>() == 0)
            .count();
        assert_eq!(empty_weeks, 0, "no study week should be attack-free");
    }
}
