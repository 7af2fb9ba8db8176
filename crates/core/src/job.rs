//! Wire-serializable campaign job and result types.
//!
//! The `adas-serve` daemon receives campaign grids over TCP and streams
//! per-cell statistics back. Both directions use the canonical
//! [`adas_codec`] layouts: a spec's bytes are the [`Encode`] bytes of its
//! parts (the same bytes its cache keys hash), and every decode returns an
//! error instead of panicking on malformed input.
//!
//! A *campaign* is a grid of *cells*; each cell is one (fault ×
//! intervention-set) combination swept over the masked scenario set, both
//! initial positions, and `repetitions` repetitions — exactly the shape of
//! the paper's Table VI. Cell statistics are [`CellStats`](crate::CellStats),
//! whose existing binary codec doubles as the wire encoding (and whose
//! byte equality is the "bit-identical outcome" criterion the integration
//! tests assert).

use crate::cache::Fingerprint;
use crate::config::{InterventionConfig, PlatformConfig};
use crate::experiment::{
    campaign_cell_fingerprint, campaign_run_ids_masked, CampaignCell, RunId, SCENARIO_MASK_ALL,
};
use adas_attack::{AttackScheduler, FaultType};
use adas_codec::{DecodeError, Encode, Reader, Writer};
use adas_ml::LstmPredictor;
use std::sync::Arc;

/// Hard cap on cells per campaign: a defensive bound so a hostile frame
/// cannot make the server enqueue unbounded work from one request.
pub const MAX_CELLS: usize = 1024;

/// One cell of a campaign grid: a fault type (or the benign baseline)
/// under one intervention configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Injected fault; `None` is the fault-free baseline.
    pub fault: Option<FaultType>,
    /// Active interventions for this cell.
    pub interventions: InterventionConfig,
}

/// Fault code (0 = benign), then the interventions.
impl Encode for CellSpec {
    fn encode(&self, w: &mut Writer) {
        let Self {
            fault,
            interventions,
        } = self;
        w.u8(fault.map_or(0, FaultType::code));
        w.put(interventions);
    }
}

impl CellSpec {
    /// Decodes one cell; fails on an out-of-range code or any field
    /// [`InterventionConfig::decode`] rejects.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            fault: r.opt_code(FaultType::from_code)?,
            interventions: InterventionConfig::decode(r)?,
        })
    }
}

/// A full campaign job: the sweep parameters plus the cell grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign seed (drives every run's RNG stream derivation).
    pub campaign_seed: u64,
    /// Repetitions per scenario × position (the paper uses 10).
    pub repetitions: u32,
    /// Per-run step cap override; 0 keeps the platform default (10 000).
    pub max_steps: u32,
    /// Scenario subset (bit `i` = `ScenarioId::ALL[i]`);
    /// [`SCENARIO_MASK_ALL`] sweeps the full S1–S6 grid.
    pub scenario_mask: u8,
    /// Attack-scheduling policy every cell runs under. Immediate is the
    /// paper's always-on patch; a context trigger holds the patch back
    /// until the ego is in a vulnerable state (Zhou et al.).
    pub attack: AttackScheduler,
    /// The cell grid, in submission (= streaming) order.
    pub cells: Vec<CellSpec>,
}

/// Version tag leading every serialised [`CampaignSpec`]; frames with any
/// other tag are rejected rather than misparsed.
const CAMPAIGN_SPEC_VERSION: u8 = 3;

/// Version byte, seed, repetitions, step cap, scenario mask, attack
/// scheduler, `u16` cell count, cells.
impl Encode for CampaignSpec {
    fn encode(&self, w: &mut Writer) {
        let Self {
            campaign_seed,
            repetitions,
            max_steps,
            scenario_mask,
            attack,
            cells,
        } = self;
        w.u8(CAMPAIGN_SPEC_VERSION);
        w.u64(*campaign_seed);
        w.u32(*repetitions);
        w.u32(*max_steps);
        w.u8(*scenario_mask);
        w.put(attack);
        w.u16(u16::try_from(cells.len()).expect("≤ MAX_CELLS cells"));
        for cell in cells {
            w.put(cell);
        }
    }
}

impl CampaignSpec {
    /// A full-grid campaign (all scenarios, default run length).
    #[must_use]
    pub fn new(campaign_seed: u64, repetitions: u32, cells: Vec<CellSpec>) -> Self {
        Self {
            campaign_seed,
            repetitions,
            max_steps: 0,
            scenario_mask: SCENARIO_MASK_ALL,
            attack: AttackScheduler::Immediate,
            cells,
        }
    }

    /// Whether the spec is internally valid (non-empty bounded grid, sane
    /// mask, at least one repetition).
    #[must_use]
    pub fn validate(&self) -> bool {
        self.repetitions >= 1
            && !self.cells.is_empty()
            && self.cells.len() <= MAX_CELLS
            && self.scenario_mask != 0
            && self.scenario_mask & !SCENARIO_MASK_ALL == 0
    }

    /// The platform configuration a given cell runs under.
    #[must_use]
    pub fn config_for(&self, cell: &CellSpec) -> PlatformConfig {
        let mut config = PlatformConfig::with_interventions(cell.interventions);
        if self.max_steps != 0 {
            config.max_steps = self.max_steps as usize;
        }
        config.attack = self.attack;
        config
    }

    /// Run coordinates of one cell's sweep, in paper order.
    #[must_use]
    pub fn run_ids(&self) -> Vec<RunId> {
        campaign_run_ids_masked(self.repetitions, self.scenario_mask)
    }

    /// One cell of the grid as a [`CampaignCell`], ready for
    /// [`resolve_cell`](crate::resolve_cell). `model` (a trained model and
    /// its weights fingerprint) is kept only for ML cells.
    #[must_use]
    pub fn cell<'a>(
        &self,
        cell: &CellSpec,
        model: Option<(&'a Arc<LstmPredictor>, Fingerprint)>,
    ) -> CampaignCell<'a> {
        CampaignCell {
            fault: cell.fault,
            config: self.config_for(cell),
            model: model.filter(|_| cell.interventions.ml),
            campaign_seed: self.campaign_seed,
            repetitions: self.repetitions,
            scenario_mask: self.scenario_mask,
        }
    }

    /// Content fingerprint of one cell's aggregate result:
    /// [`CampaignCell::key`] of [`Self::cell`] given the model's
    /// fingerprint alone. Both are [`campaign_cell_fingerprint`], so a
    /// campaign served over the wire hits the same artifact-cache entries
    /// the CLI harnesses write (and vice versa).
    #[must_use]
    pub fn cell_key(&self, cell: &CellSpec, model: Option<Fingerprint>) -> Fingerprint {
        campaign_cell_fingerprint(
            cell.fault,
            &self.config_for(cell),
            model,
            self.campaign_seed,
            self.repetitions,
            self.scenario_mask,
        )
    }

    /// The consistent-hashing routing key of one cell: [`Self::cell_key`]
    /// with the model fingerprint deliberately excluded, so a coordinator
    /// can route cells without training a model and — more importantly —
    /// so a cell keeps landing on the same worker across campaigns that
    /// only differ in resident model identity. The worker still looks its
    /// caches up under the full (model-qualified) [`Self::cell_key`].
    #[must_use]
    pub fn route_key(&self, cell: &CellSpec) -> u64 {
        self.cell_key(cell, None).value()
    }

    /// Serialises the spec (its [`Encode`] bytes).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put(self);
        w.into_bytes()
    }

    /// Parses [`Self::to_bytes`] output; `None` on version mismatch,
    /// truncation, trailing bytes, or any field failing validation.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes);
        if r.u8().ok()? != CAMPAIGN_SPEC_VERSION {
            return None;
        }
        let campaign_seed = r.u64().ok()?;
        let repetitions = r.u32().ok()?;
        let max_steps = r.u32().ok()?;
        let scenario_mask = r.u8().ok()?;
        let attack = AttackScheduler::decode(&mut r).ok()?;
        let count = usize::from(r.u16().ok()?);
        if count > MAX_CELLS {
            return None;
        }
        let cells = (0..count)
            .map(|_| CellSpec::decode(&mut r))
            .collect::<Result<_, _>>()
            .ok()?;
        r.finish().ok()?;
        let spec = Self {
            campaign_seed,
            repetitions,
            max_steps,
            scenario_mask,
            attack,
            cells,
        };
        spec.validate().then_some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adas_attack::ContextTrigger;
    use adas_scenarios::{AccidentKind, ScenarioId};

    fn sample_spec() -> CampaignSpec {
        CampaignSpec {
            campaign_seed: 2025,
            repetitions: 3,
            max_steps: 1500,
            scenario_mask: 0b001001, // S1 + S4
            attack: AttackScheduler::Immediate,
            cells: vec![
                CellSpec {
                    fault: None,
                    interventions: InterventionConfig::none(),
                },
                CellSpec {
                    fault: Some(FaultType::RelativeDistance),
                    interventions: InterventionConfig::driver_check_aeb_independent(),
                },
                CellSpec {
                    fault: Some(FaultType::Mixed),
                    interventions: InterventionConfig::ml_only(),
                },
            ],
        }
    }

    #[test]
    fn route_key_is_stable_and_model_independent() {
        let spec = sample_spec();
        // Distinct cells route independently…
        let keys: Vec<u64> = spec.cells.iter().map(|c| spec.route_key(c)).collect();
        assert_eq!(keys.len(), 3);
        assert!(keys[0] != keys[1] && keys[1] != keys[2] && keys[0] != keys[2]);
        // …and the key matches the model-less cache key exactly, so a
        // coordinator and a cache-warm worker agree on cell identity.
        for cell in &spec.cells {
            assert_eq!(spec.route_key(cell), spec.cell_key(cell, None).value());
        }
        // A sub-spec carrying only one cell (a fabric assignment slice)
        // routes that cell identically to the full grid.
        let sub = CampaignSpec {
            cells: vec![spec.cells[1]],
            ..spec.clone()
        };
        assert_eq!(sub.route_key(&sub.cells[0]), keys[1]);
    }

    #[test]
    fn campaign_spec_bytes_are_pinned() {
        // Serve protocol VERSION 2 carries these exact bytes; routing the
        // codec through the shared `Encode` impls must not move them.
        let hex: String = sample_spec()
            .to_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "03e90700000000000003000000dc05000009000300000000000000000000044000010302000000\
             000000044000030400000000000000044000"
        );
    }

    #[test]
    fn enum_codes_round_trip_and_keep_their_values() {
        use adas_safety::AebsMode;
        use adas_simulator::FrictionCondition;
        for (fault, code) in FaultType::ALL.into_iter().zip(1..) {
            assert_eq!(
                (fault.code(), FaultType::from_code(code)),
                (code, Some(fault))
            );
        }
        let modes = [
            AebsMode::Disabled,
            AebsMode::Compromised,
            AebsMode::Independent,
        ];
        for (mode, code) in modes.into_iter().zip(0..) {
            assert_eq!((mode.code(), AebsMode::from_code(code)), (code, Some(mode)));
        }
        let kinds = [AccidentKind::ForwardCollision, AccidentKind::LaneViolation];
        for (kind, code) in kinds.into_iter().zip(1..) {
            assert_eq!(
                (kind.code(), AccidentKind::from_code(code)),
                (code, Some(kind))
            );
        }
        let frictions = FrictionCondition::TABLE_VIII
            .into_iter()
            .chain([FrictionCondition::Custom(0.4)]);
        for (f, code) in frictions.zip(0..) {
            assert_eq!(
                (f.code(), FrictionCondition::from_code(code, 0.4)),
                (code, Some(f))
            );
        }
        assert_eq!(FaultType::from_code(0), None);
        assert_eq!(AebsMode::from_code(3), None);
        assert_eq!(AccidentKind::from_code(0), None);
        assert_eq!(FrictionCondition::from_code(5, 0.0), None);
    }

    #[test]
    fn campaign_spec_roundtrip() {
        let spec = sample_spec();
        let bytes = spec.to_bytes();
        assert_eq!(CampaignSpec::from_bytes(&bytes), Some(spec));
    }

    #[test]
    fn scheduled_campaign_roundtrips_and_gets_fresh_keys() {
        let mut spec = sample_spec();
        spec.attack = AttackScheduler::Context(ContextTrigger::ttc(2.0));
        assert_eq!(
            CampaignSpec::from_bytes(&spec.to_bytes()),
            Some(spec.clone())
        );
        // A scheduled campaign is a different experiment from the immediate
        // one: cache and routing keys must not collide.
        let immediate = sample_spec();
        for cell in &spec.cells {
            assert_eq!(spec.config_for(cell).attack, spec.attack);
            assert_ne!(spec.cell_key(cell, None), immediate.cell_key(cell, None));
            assert_ne!(spec.route_key(cell), immediate.route_key(cell));
        }
        // Non-finite trigger fields are malformed on the wire.
        let mut bad = spec.clone();
        bad.attack = AttackScheduler::Context(ContextTrigger::ttc(f64::NAN));
        assert_eq!(CampaignSpec::from_bytes(&bad.to_bytes()), None);
    }

    #[test]
    fn campaign_spec_rejects_corruption() {
        let spec = sample_spec();
        let bytes = spec.to_bytes();
        // Truncation at every boundary.
        for cut in 0..bytes.len() {
            assert_eq!(CampaignSpec::from_bytes(&bytes[..cut]), None, "cut {cut}");
        }
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(CampaignSpec::from_bytes(&long), None);
        // Bad version byte.
        let mut bad = bytes;
        bad[0] = 9;
        assert_eq!(CampaignSpec::from_bytes(&bad), None);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut spec = sample_spec();
        spec.scenario_mask = 0;
        assert_eq!(CampaignSpec::from_bytes(&spec.to_bytes()), None);
        let mut spec = sample_spec();
        spec.scenario_mask = 0xFF; // bits beyond S6
        assert_eq!(CampaignSpec::from_bytes(&spec.to_bytes()), None);
        let mut spec = sample_spec();
        spec.repetitions = 0;
        assert_eq!(CampaignSpec::from_bytes(&spec.to_bytes()), None);
        let mut spec = sample_spec();
        spec.cells.clear();
        assert_eq!(CampaignSpec::from_bytes(&spec.to_bytes()), None);
    }

    #[test]
    fn full_grid_cell_key_matches_cli_fingerprint() {
        let spec = CampaignSpec::new(
            2025,
            10,
            vec![CellSpec {
                fault: Some(FaultType::DesiredCurvature),
                interventions: InterventionConfig::driver_and_check(),
            }],
        );
        let cell = spec.cells[0];
        let direct = campaign_cell_fingerprint(
            cell.fault,
            &PlatformConfig::with_interventions(cell.interventions),
            None,
            2025,
            10,
            SCENARIO_MASK_ALL,
        );
        assert_eq!(spec.cell_key(&cell, None), direct);
        // A masked grid must NOT collide with the full-grid key family.
        let mut masked = spec.clone();
        masked.scenario_mask = 0b1;
        assert_ne!(masked.cell_key(&cell, None), direct);
    }

    #[test]
    fn mitigation_cells_roundtrip() {
        let mut ens = InterventionConfig::ensemble_only();
        ens.views = 12;
        let spec = CampaignSpec {
            cells: vec![
                CellSpec {
                    fault: Some(FaultType::RelativeDistance),
                    interventions: ens,
                },
                CellSpec {
                    fault: Some(FaultType::Mixed),
                    interventions: InterventionConfig::maskcheck_only(),
                },
            ],
            ..sample_spec()
        };
        assert_eq!(CampaignSpec::from_bytes(&spec.to_bytes()), Some(spec));
    }

    #[test]
    fn mitigation_variants_get_distinct_cache_and_route_keys() {
        // Satellite regression: the three mitigation strategies — and
        // different view counts of one strategy — are different
        // experiments, so the memo/disk cache keys and the fabric routing
        // keys must all be distinct. A collision here would silently serve
        // one strategy's Table VII numbers as another's.
        let fault = Some(FaultType::RelativeDistance);
        let mut variants = vec![
            InterventionConfig::ml_only(),
            InterventionConfig::ensemble_only(),
            InterventionConfig::maskcheck_only(),
        ];
        let mut ens12 = InterventionConfig::ensemble_only();
        ens12.views = 12;
        variants.push(ens12);
        let cells: Vec<CellSpec> = variants
            .iter()
            .map(|&interventions| CellSpec {
                fault,
                interventions,
            })
            .collect();
        let spec = CampaignSpec::new(2025, 10, cells.clone());
        let model = Some(Fingerprint::new().write_str("weights"));
        for i in 0..cells.len() {
            for j in i + 1..cells.len() {
                assert_ne!(
                    spec.cell_key(&cells[i], model),
                    spec.cell_key(&cells[j], model),
                    "cache-key collision between variants {i} and {j}"
                );
                assert_ne!(
                    spec.route_key(&cells[i]),
                    spec.route_key(&cells[j]),
                    "route-key collision between variants {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn masked_run_ids_are_a_subset() {
        let spec = sample_spec();
        let ids = spec.run_ids();
        assert_eq!(ids.len(), 2 * 2 * 3); // 2 scenarios × 2 positions × 3 reps
        assert!(ids
            .iter()
            .all(|id| matches!(id.scenario, ScenarioId::S1 | ScenarioId::S4)));
        let full = campaign_run_ids_masked(3, SCENARIO_MASK_ALL);
        assert!(ids.iter().all(|id| full.contains(id)));
    }
}
