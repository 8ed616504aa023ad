//! Device image persistence: save and restore the simulated NVM's
//! contents, **wear state and fault state** across process restarts —
//! the property that makes persistent memory persistent. Examples and
//! long-running experiments use this to resume pools without replaying
//! history; the `e2nvm-persist` crate embeds these images in its
//! full-system snapshots.
//!
//! Format (little-endian): magic `E2DV`, version, geometry, flags,
//! energy/latency parameters, pool bytes, the optional wear counter
//! arrays, then the optional fault-model section: its
//! config, the transient-draw position, and the per-segment lifetime
//! programmed-bit totals and worn flags. Endurance *limits* are not
//! stored — they are re-drawn deterministically from the persisted
//! config. Cumulative [`crate::DeviceStats`] are *not* stored either:
//! they are measurement state, not device state. An image of any
//! other version is [`SimError::InvalidConfig`].

use crate::addr::PhysicalSegment;
use crate::config::{DeviceConfig, WearTracking};
use crate::device::NvmDevice;
use crate::energy::EnergyParams;
use crate::error::{Result, SimError};
use crate::fault::FaultConfig;
use crate::latency::LatencyParams;

const MAGIC: &[u8; 4] = b"E2DV";
const VERSION: u16 = 2;

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| SimError::InvalidConfig("device image truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
}

/// Serialize a device (config + contents + wear) into a byte image.
pub fn to_image(device: &NvmDevice) -> Vec<u8> {
    let cfg = device.config();
    let mut buf = Vec::with_capacity(cfg.pool_bytes() + 256);
    buf.extend_from_slice(MAGIC);
    put_u16(&mut buf, VERSION);
    put_u64(&mut buf, cfg.segment_bytes as u64);
    put_u64(&mut buf, cfg.num_segments as u64);
    put_u64(&mut buf, cfg.cache_line_bytes as u64);
    put_u64(&mut buf, cfg.block_bytes as u64);
    buf.push(u8::from(cfg.media_dcw));
    buf.push(match cfg.wear_tracking {
        WearTracking::None => 0,
        WearTracking::PerSegment => 1,
        WearTracking::PerBit => 2,
    });
    for v in [
        cfg.energy.ctrl_pj,
        cfg.energy.line_pj,
        cfg.energy.bit_flip_pj,
        cfg.energy.set_pj,
        cfg.energy.reset_pj,
        cfg.energy.read_line_pj,
        cfg.energy.dram_pool_op_pj,
        cfg.energy.cpu_mac_pj,
        cfg.latency.write_base_ns,
        cfg.latency.write_line_ns,
        cfg.latency.read_base_ns,
        cfg.latency.read_line_ns,
    ] {
        put_f64(&mut buf, v);
    }
    // Pool contents.
    for seg in device.segments() {
        buf.extend_from_slice(device.peek(seg));
    }
    // Wear counters.
    match device.wear().per_segment_writes() {
        Some(w) => {
            put_u64(&mut buf, w.len() as u64);
            for &c in w {
                buf.extend_from_slice(&c.to_le_bytes());
            }
        }
        None => put_u64(&mut buf, 0),
    }
    match device.wear().per_bit_flips() {
        Some(b) => {
            put_u64(&mut buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
        None => put_u64(&mut buf, 0),
    }
    // Fault-model section: config + mutable state. Limits
    // are re-drawn from the config on restore.
    match device.fault_state() {
        Some(f) => {
            buf.push(1);
            let fc = f.config();
            put_u64(&mut buf, fc.seed);
            put_u64(&mut buf, fc.endurance_bits);
            put_f64(&mut buf, fc.endurance_shape);
            put_f64(&mut buf, fc.transient_rate);
            put_u64(&mut buf, f.draw_count());
            put_u64(&mut buf, f.programmed_totals().len() as u64);
            for &p in f.programmed_totals() {
                put_u64(&mut buf, p);
            }
            for &w in f.worn_flags() {
                buf.push(u8::from(w));
            }
        }
        None => buf.push(0),
    }
    buf
}

/// Rebuild a device from an image produced by [`to_image`].
pub fn from_image(image: &[u8]) -> Result<NvmDevice> {
    let mut c = Cursor { buf: image, pos: 0 };
    if c.take(4)? != MAGIC {
        return Err(SimError::InvalidConfig("not a device image".into()));
    }
    let version = c.u16()?;
    if version != VERSION {
        return Err(SimError::InvalidConfig(format!(
            "unsupported device image version {version} (this build reads {VERSION})"
        )));
    }
    let segment_bytes = c.u64()? as usize;
    let num_segments = c.u64()? as usize;
    let cache_line_bytes = c.u64()? as usize;
    let block_bytes = c.u64()? as usize;
    let media_dcw = c.take(1)?[0] != 0;
    let wear_tracking = match c.take(1)?[0] {
        0 => WearTracking::None,
        1 => WearTracking::PerSegment,
        2 => WearTracking::PerBit,
        t => {
            return Err(SimError::InvalidConfig(format!(
                "unknown wear tracking tag {t}"
            )))
        }
    };
    let mut f = [0f64; 12];
    for v in &mut f {
        *v = c.f64()?;
    }
    let pool_bytes = num_segments
        .checked_mul(segment_bytes)
        .ok_or_else(|| SimError::InvalidConfig("device image geometry overflows".into()))?;
    let contents = c.take(pool_bytes)?;
    // Wear counters.
    let n_seg_counters = c.u64()? as usize;
    let mut seg_counters = Vec::with_capacity(n_seg_counters.min(1 << 20));
    for _ in 0..n_seg_counters {
        seg_counters.push(u32::from_le_bytes(c.take(4)?.try_into().expect("4")));
    }
    let n_bit_counters = c.u64()? as usize;
    let bit_counters = c.take(n_bit_counters)?.to_vec();
    // Fault-model section, behind its presence tag.
    let fault = if c.take(1)?[0] != 0 {
        let cfg = FaultConfig {
            seed: c.u64()?,
            endurance_bits: c.u64()?,
            endurance_shape: c.f64()?,
            transient_rate: c.f64()?,
        };
        cfg.validate()?;
        let draws = c.u64()?;
        let n = c.u64()? as usize;
        if n != num_segments {
            return Err(SimError::InvalidConfig(format!(
                "fault state covers {n} segments but the device has {num_segments}"
            )));
        }
        let mut programmed = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            programmed.push(c.u64()?);
        }
        let worn: Vec<bool> = c.take(n)?.iter().map(|&b| b != 0).collect();
        Some((cfg, draws, programmed, worn))
    } else {
        None
    };
    if c.pos != image.len() {
        return Err(SimError::InvalidConfig(
            "trailing bytes after device image".into(),
        ));
    }
    let mut builder = DeviceConfig::builder()
        .segment_bytes(segment_bytes)
        .num_segments(num_segments)
        .cache_line_bytes(cache_line_bytes)
        .block_bytes(block_bytes)
        .media_dcw(media_dcw)
        .wear_tracking(wear_tracking)
        .energy(EnergyParams {
            ctrl_pj: f[0],
            line_pj: f[1],
            bit_flip_pj: f[2],
            set_pj: f[3],
            reset_pj: f[4],
            read_line_pj: f[5],
            dram_pool_op_pj: f[6],
            cpu_mac_pj: f[7],
        })
        .latency(LatencyParams {
            write_base_ns: f[8],
            write_line_ns: f[9],
            read_base_ns: f[10],
            read_line_ns: f[11],
        });
    if let Some((fc, _, _, _)) = &fault {
        builder = builder.fault(fc.clone());
    }
    let mut device = NvmDevice::new(builder.build()?);
    for i in 0..num_segments {
        device.seed_segment(
            PhysicalSegment(i),
            &contents[i * segment_bytes..(i + 1) * segment_bytes],
        )?;
    }
    device.restore_wear(&seg_counters, &bit_counters)?;
    if let Some((_, draws, programmed, worn)) = fault {
        device.restore_fault(&programmed, &worn, draws)?;
    }
    Ok(device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn worn_device() -> NvmDevice {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(8)
            .block_bytes(64)
            .wear_tracking(WearTracking::PerBit)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        dev.fill_random(&mut rng);
        for round in 0..5u8 {
            for i in 0..8 {
                dev.write(PhysicalSegment(i), &[round.wrapping_mul(37); 64])
                    .unwrap();
            }
        }
        dev
    }

    #[test]
    fn image_roundtrip_preserves_contents_and_wear() {
        let dev = worn_device();
        let image = to_image(&dev);
        let restored = from_image(&image).unwrap();
        for i in 0..8 {
            assert_eq!(
                restored.peek(PhysicalSegment(i)),
                dev.peek(PhysicalSegment(i))
            );
        }
        assert_eq!(
            restored.wear().per_segment_writes(),
            dev.wear().per_segment_writes()
        );
        assert_eq!(restored.wear().per_bit_flips(), dev.wear().per_bit_flips());
        assert_eq!(restored.config(), dev.config());
        // Stats are measurement state: reset on restore.
        assert_eq!(restored.stats().writes, 0);
    }

    #[test]
    fn fault_state_roundtrips_through_image() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(64)
            .num_segments(4)
            .block_bytes(64)
            .fault(crate::fault::FaultConfig {
                seed: 7,
                endurance_bits: 2048,
                endurance_shape: 3.0,
                transient_rate: 0.0,
            })
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        // Wear segment 0 out; accumulate partial wear on segment 1.
        loop {
            let a = dev.write(PhysicalSegment(0), &[0xFFu8; 64]);
            let b = dev.write(PhysicalSegment(0), &[0x00u8; 64]);
            if a.is_err() || b.is_err() {
                break;
            }
        }
        dev.write(PhysicalSegment(1), &[0xA5u8; 64]).unwrap();
        let orig = dev.fault_state().unwrap();
        let restored = from_image(&to_image(&dev)).unwrap();
        let f = restored.fault_state().unwrap();
        assert_eq!(f.config(), orig.config());
        assert_eq!(f.programmed_totals(), orig.programmed_totals());
        assert_eq!(f.worn_flags(), orig.worn_flags());
        assert_eq!(f.draw_count(), orig.draw_count());
        assert!(restored.is_worn_out(PhysicalSegment(0)));
        assert_eq!(restored.worn_out_count(), 1);
        // Worn segments keep rejecting writes after restore.
        assert!(restored
            .clone()
            .write(PhysicalSegment(0), &[0x11u8; 64])
            .is_err());
    }

    #[test]
    fn corrupt_images_rejected() {
        let dev = worn_device();
        let image = to_image(&dev);
        // Bad magic.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(from_image(&bad).is_err());
        // Truncated.
        assert!(from_image(&image[..image.len() / 2]).is_err());
        // Trailing garbage.
        let mut long = image.clone();
        long.push(7);
        assert!(from_image(&long).is_err());
        // A version this build does not write.
        for version in [1u16, VERSION + 1] {
            let mut other = image.clone();
            other[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                from_image(&other),
                Err(SimError::InvalidConfig(msg)) if msg.contains("version")
            ));
        }
    }

    #[test]
    fn no_wear_tracking_roundtrip() {
        let cfg = DeviceConfig::builder()
            .segment_bytes(32)
            .num_segments(4)
            .block_bytes(64)
            .cache_line_bytes(64)
            .build()
            .unwrap();
        let mut dev = NvmDevice::new(cfg);
        dev.seed_segment(PhysicalSegment(2), &[9u8; 32]).unwrap();
        let restored = from_image(&to_image(&dev)).unwrap();
        assert_eq!(restored.peek(PhysicalSegment(2)), &[9u8; 32]);
        assert!(restored.wear().per_segment_writes().is_none());
    }
}
