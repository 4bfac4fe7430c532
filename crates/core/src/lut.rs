//! The on-device latency lookup table.
//!
//! Paper §III-A-a: the interval search constrains inference latency through
//! a penalty `t(w_n)` looked up per candidate layer. "It is trivial to
//! collect their latency with all possible configurations" — here the
//! "device" is the gpusim model, and the LUT maps a layer configuration to
//! the **extra** milliseconds choosing the deformable operator costs over
//! the regular one.

use defcon_gpusim::Gpu;
use defcon_kernels::op::simulate_regular_conv_ms;
use defcon_kernels::op::{
    synthetic_inputs, DeformConvOp, OffsetPredictorKind, OpFamily, SamplingMethod,
};
use defcon_kernels::{DeformLayerShape, TileConfig};
use defcon_support::error::DefconError;
use defcon_support::fault;
use defcon_support::json::{FromJson, Json, JsonError, ToJson};
use defcon_support::par;
use defcon_tensor::sample::OffsetTransform;
use defcon_tensor::Tensor;
use std::collections::HashMap;

/// LUT key: the latency-relevant coordinates of a 3×3 convolution slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LatencyKey {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Stride (1 or 2 in ResNet-style backbones).
    pub stride: usize,
}

impl LatencyKey {
    /// The key of a layer shape.
    pub fn of(shape: &DeformLayerShape) -> Self {
        LatencyKey {
            c_in: shape.c_in,
            c_out: shape.c_out,
            h: shape.h,
            w: shape.w,
            stride: shape.stride,
        }
    }

    /// Reconstructs the layer shape (batch 1, 3×3, pad 1, one deformable
    /// group — the configuration backbones use).
    pub fn shape(&self) -> DeformLayerShape {
        DeformLayerShape {
            n: 1,
            c_in: self.c_in,
            c_out: self.c_out,
            h: self.h,
            w: self.w,
            kernel: 3,
            stride: self.stride,
            pad: 1,
            deform_groups: 1,
        }
    }
}

impl ToJson for LatencyKey {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("c_in", Json::from(self.c_in)),
            ("c_out", Json::from(self.c_out)),
            ("h", Json::from(self.h)),
            ("w", Json::from(self.w)),
            ("stride", Json::from(self.stride)),
        ])
    }
}

impl FromJson for LatencyKey {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(LatencyKey {
            c_in: j.usize_field("c_in")?,
            c_out: j.usize_field("c_out")?,
            h: j.usize_field("h")?,
            w: j.usize_field("w")?,
            stride: j.usize_field("stride")?,
        })
    }
}

/// One LUT entry: measured latencies of the operator choices at a key.
#[derive(Clone, Copy, Debug)]
pub struct LatencyEntry {
    /// Regular 3×3 convolution, milliseconds.
    pub regular_ms: f64,
    /// Deformable operator (offset conv + sampling + conv), milliseconds.
    pub deform_ms: f64,
}

impl LatencyEntry {
    /// The quantity `t(w_n)` the search penalizes: the *additional* cost of
    /// going deformable at this slot.
    pub fn dcn_overhead_ms(&self) -> f64 {
        (self.deform_ms - self.regular_ms).max(0.0)
    }
}

impl ToJson for LatencyEntry {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("regular_ms", Json::from(self.regular_ms)),
            ("deform_ms", Json::from(self.deform_ms)),
        ])
    }
}

impl FromJson for LatencyEntry {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(LatencyEntry {
            regular_ms: j.num_field("regular_ms")?,
            deform_ms: j.num_field("deform_ms")?,
        })
    }
}

/// Latency lookup table built by timing both operator choices on a
/// simulated device.
#[derive(Clone, Debug, Default)]
pub struct LatencyLut {
    /// Device name the table was collected on.
    pub device: String,
    entries: HashMap<LatencyKey, LatencyEntry>,
}

impl LatencyLut {
    /// Builds a LUT on `gpu` for every key in `keys`, timing the `family`
    /// deformable operator in the given configuration (the search should
    /// penalize the operator it will actually deploy). v2/v3 pay their
    /// wider joint predictor and modulation traffic, so a search penalized
    /// with a v3 table can place layers differently from a v1 table on the
    /// same device.
    ///
    /// Keys are independent items of one `par::map` on
    /// `gpu.policy().threads` workers (`DEFCON_THREADS` by default); each
    /// launch is one serial walk, so the table's entries — and its
    /// serialized bytes — are identical at every thread count.
    pub fn build(
        gpu: &Gpu,
        keys: &[LatencyKey],
        method: SamplingMethod,
        predictor: OffsetPredictorKind,
        family: OpFamily,
    ) -> Self {
        let measured = par::map(keys, gpu.policy().threads, |key| {
            let (op, x, offsets) = key_op(key, method, predictor, family);
            LatencyEntry {
                regular_ms: simulate_regular_conv_ms(gpu, &op.shape),
                deform_ms: op.simulate_total(gpu, &x, &offsets).0,
            }
        });
        LatencyLut {
            device: gpu.config().name.clone(),
            entries: keys.iter().copied().zip(measured).collect(),
        }
    }

    /// Looks up an entry.
    pub fn get(&self, key: &LatencyKey) -> Option<&LatencyEntry> {
        self.entries.get(key)
    }

    /// `t(w_n)` for the search penalty; [`DefconError::MissingKey`] when
    /// the key was not collected (the search must not silently treat an
    /// unmeasured layer as free).
    pub fn dcn_overhead_ms(&self, key: &LatencyKey) -> Result<f64, DefconError> {
        self.entries
            .get(key)
            .map(LatencyEntry::dcn_overhead_ms)
            .ok_or_else(|| DefconError::MissingKey {
                what: format!("latency LUT key {key:?} (collected on {})", self.device),
            })
    }

    /// Number of collected keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes to JSON (the paper's workflow collects the table offline).
    ///
    /// The format is `[device, [[key, entry], ...]]` with the pairs sorted
    /// by key, so the same table always serializes to the same bytes no
    /// matter what order the `HashMap` happens to iterate in.
    pub fn to_json(&self) -> String {
        let mut pairs: Vec<(&LatencyKey, &LatencyEntry)> = self.entries.iter().collect();
        pairs.sort_by_key(|(k, _)| **k);
        let pair_values = pairs
            .into_iter()
            .map(|(k, e)| Json::Arr(vec![k.to_json(), e.to_json()]))
            .collect();
        Json::Arr(vec![Json::str(&self.device), Json::Arr(pair_values)]).to_string()
    }

    /// Deserializes from [`LatencyLut::to_json`] output.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(s)?;
        let top = doc
            .as_arr()
            .ok_or_else(|| JsonError::msg("LUT document must be an array"))?;
        let [device, pairs] = top else {
            return Err(JsonError::msg("LUT document must be [device, pairs]"));
        };
        let device = device
            .as_str()
            .ok_or_else(|| JsonError::msg("LUT device must be a string"))?;
        let pairs = pairs
            .as_arr()
            .ok_or_else(|| JsonError::msg("LUT pairs must be an array"))?;
        let mut entries = HashMap::with_capacity(pairs.len());
        for pair in pairs {
            let [key, entry] = pair
                .as_arr()
                .ok_or_else(|| JsonError::msg("LUT pair must be an array"))?
            else {
                return Err(JsonError::msg("LUT pair must be [key, entry]"));
            };
            entries.insert(LatencyKey::from_json(key)?, LatencyEntry::from_json(entry)?);
        }
        Ok(LatencyLut {
            device: device.to_string(),
            entries,
        })
    }

    /// Writes the table to `path` (atomic: temp file + rename).
    pub fn save(&self, path: &std::path::Path) -> Result<(), DefconError> {
        let text = self.to_json();
        let tmp = path.with_extension("lut-tmp");
        let display = path.display().to_string();
        std::fs::write(&tmp, text.as_bytes()).map_err(|e| DefconError::io(&display, &e))?;
        std::fs::rename(&tmp, path).map_err(|e| DefconError::io(&display, &e))?;
        Ok(())
    }

    /// Loads a table written by [`LatencyLut::save`]. IO failures and
    /// malformed JSON both come back as typed [`DefconError`]s — a corrupt
    /// LUT file must never panic the search that consumes it.
    ///
    /// Fault point `lut.load` corrupts the file bytes after reading
    /// (truncation or byte flip), for degradation tests.
    pub fn load(path: &std::path::Path) -> Result<Self, DefconError> {
        let display = path.display().to_string();
        let mut text = std::fs::read_to_string(path).map_err(|e| DefconError::io(&display, &e))?;
        fault::corrupt_string("lut.load", &mut text);
        LatencyLut::from_json(&text).map_err(|e| DefconError::json(&display, e))
    }
}

/// The operator a LUT times at `key` (default tile, raw offsets, neutral
/// modulation) and its synthetic inputs.
fn key_op(
    key: &LatencyKey,
    method: SamplingMethod,
    predictor: OffsetPredictorKind,
    family: OpFamily,
) -> (DeformConvOp, Tensor, Tensor) {
    let shape = key.shape();
    let (x, offsets) = synthetic_inputs(&shape, 4.0, 0xDEFC);
    let op = DeformConvOp {
        shape,
        tile: TileConfig::default16(),
        method,
        offset_predictor: predictor,
        offset_transform: OffsetTransform::Identity,
        family,
        modulation: None,
    };
    (op, x, offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defcon_gpusim::DeviceConfig;

    fn tiny_keys() -> Vec<LatencyKey> {
        vec![
            LatencyKey {
                c_in: 16,
                c_out: 16,
                h: 16,
                w: 16,
                stride: 1,
            },
            LatencyKey {
                c_in: 16,
                c_out: 32,
                h: 16,
                w: 16,
                stride: 2,
            },
        ]
    }

    #[test]
    fn build_measures_both_choices() -> Result<(), DefconError> {
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let lut = LatencyLut::build(
            &gpu,
            &tiny_keys(),
            SamplingMethod::SoftwareBilinear,
            OffsetPredictorKind::Standard,
            OpFamily::DcnV1,
        );
        assert_eq!(lut.len(), 2);
        for key in tiny_keys() {
            let e = lut.get(&key).unwrap();
            assert!(
                e.deform_ms > e.regular_ms,
                "DCN must cost more than regular conv at {key:?}"
            );
            assert!(lut.dcn_overhead_ms(&key)? > 0.0);
        }
        Ok(())
    }

    #[test]
    fn family_aware_lut_orders_v1_v2_v3() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        // The modulated (v2) and sparse-softmax (v3) kernels cost strictly
        // more than v1 at the same key: v2 adds a mask load + multiply per
        // tap and widens the joint predictor to 3·G·k² channels; v3 pays
        // the same predictor width plus the in-kernel softmax arithmetic.
        // The search therefore sees a different t(w) per family and can
        // reach a different placement.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let keys = tiny_keys();
        let method = SamplingMethod::Tex2d;
        let pred = OffsetPredictorKind::Standard;
        let v1 = LatencyLut::build(&gpu, &keys, method, pred, OpFamily::DcnV1);
        let v2 = LatencyLut::build(&gpu, &keys, method, pred, OpFamily::DcnV2);
        let v3 = LatencyLut::build(&gpu, &keys, method, pred, OpFamily::DcnV3);
        for key in &keys {
            let (o1, o2, o3) = (
                v1.dcn_overhead_ms(key)?,
                v2.dcn_overhead_ms(key)?,
                v3.dcn_overhead_ms(key)?,
            );
            assert!(o1 < o2, "v2 must cost more than v1 at {key:?}");
            assert!(o2 < o3, "v3 must cost more than v2 at {key:?}");
            // The regular-conv arm is family-independent.
            assert_eq!(
                v1.get(key).expect("v1 entry").regular_ms,
                v2.get(key).expect("v2 entry").regular_ms
            );
        }
        Ok(())
    }

    #[test]
    fn lightweight_predictor_shrinks_overhead() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let keys = [LatencyKey {
            c_in: 64,
            c_out: 64,
            h: 32,
            w: 32,
            stride: 1,
        }];
        let std = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::SoftwareBilinear,
            OffsetPredictorKind::Standard,
            OpFamily::DcnV1,
        );
        let lw = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2dPlusPlus,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        assert!(lw.dcn_overhead_ms(&keys[0])? < std.dcn_overhead_ms(&keys[0])?);
        Ok(())
    }

    #[test]
    fn json_round_trip() -> Result<(), DefconError> {
        let _quiet = fault::quiesce();
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let lut = LatencyLut::build(
            &gpu,
            &tiny_keys(),
            SamplingMethod::Tex2d,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        let s = lut.to_json();
        let back = LatencyLut::from_json(&s).unwrap();
        assert_eq!(back.len(), lut.len());
        assert_eq!(back.device, lut.device);
        for key in tiny_keys() {
            assert!((back.dcn_overhead_ms(&key)? - lut.dcn_overhead_ms(&key)?).abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn serialization_is_deterministic() {
        let _quiet = fault::quiesce();
        // HashMap iteration order varies run to run; the sorted pair list
        // must not.
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let mut keys = tiny_keys();
        let a = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2d,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        keys.reverse();
        let b = LatencyLut::build(
            &gpu,
            &keys,
            SamplingMethod::Tex2d,
            OffsetPredictorKind::Lightweight,
            OpFamily::DcnV1,
        );
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(
            a.to_json(),
            LatencyLut::from_json(&a.to_json()).unwrap().to_json()
        );
    }

    #[test]
    fn save_load_round_trip_and_corrupt_file_is_typed() {
        use defcon_support::fault::{self, FaultPlan, Schedule};
        let gpu = Gpu::new(DeviceConfig::xavier_agx());
        let lut = {
            let _quiet = fault::quiesce();
            LatencyLut::build(
                &gpu,
                &tiny_keys(),
                SamplingMethod::Tex2d,
                OffsetPredictorKind::Lightweight,
                OpFamily::DcnV1,
            )
        };
        let mut path = std::env::temp_dir();
        path.push(format!("defcon-lut-test-{}.json", std::process::id()));
        lut.save(&path).unwrap();
        let back = LatencyLut::load(&path).unwrap();
        assert_eq!(back.to_json(), lut.to_json());
        // Injected corruption on load → typed Json error, never a panic.
        {
            let _g = fault::arm(FaultPlan::new(17).point("lut.load", Schedule::Always));
            let err = LatencyLut::load(&path).unwrap_err();
            assert!(matches!(err, DefconError::Json { .. }));
        }
        // A missing file is an Io error naming the path.
        std::fs::remove_file(&path).unwrap();
        let err = LatencyLut::load(&path).unwrap_err();
        assert!(matches!(err, DefconError::Io { .. }));
    }

    #[test]
    fn missing_key_is_a_typed_error() {
        let lut = LatencyLut::default();
        let key = LatencyKey {
            c_in: 1,
            c_out: 1,
            h: 1,
            w: 1,
            stride: 1,
        };
        assert!(matches!(
            lut.dcn_overhead_ms(&key),
            Err(DefconError::MissingKey { what }) if what.starts_with("latency LUT key")
        ));
    }
}
