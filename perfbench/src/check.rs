//! Output checks: a bit-exact hash of everything a round produces, and
//! the validity rule for simulated and predicted metrics.

use udse_core::query::QueryResult;
use udse_core::{Metrics, PaperModels};
use udse_sim::SimResult;

/// FNV-1a over 64-bit words: stable across platforms, toolchains and
/// runs, unlike `std`'s `DefaultHasher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hash(u64);

impl Default for Hash {
    fn default() -> Self {
        Hash(0xCBF2_9CE4_8422_2325)
    }
}

impl Hash {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn metrics(&mut self, m: &Metrics) {
        self.f64(m.bips);
        self.f64(m.watts);
    }

    /// Every field of a direct-engine result, power and stalls included.
    pub fn sim_result(&mut self, r: &SimResult) {
        for x in [
            r.bips,
            r.watts,
            r.ipc,
            r.frequency_ghz,
            r.il1_miss_rate,
            r.dl1_miss_rate,
            r.l2_miss_rate,
            r.mispredict_rate,
            r.power.front_w,
            r.power.rename_w,
            r.power.regfile_w,
            r.power.issue_w,
            r.power.fu_w,
            r.power.cache_w,
            r.power.bpred_w,
            r.power.clock_w,
            r.power.leakage_w,
        ] {
            self.f64(x);
        }
        let s = &r.stalls;
        for w in [
            r.cycles,
            r.instructions,
            s.redirect,
            s.icache,
            s.rob,
            s.registers,
            s.reservations,
            s.lsq,
            s.store_queue,
        ] {
            self.word(w);
        }
    }

    /// Both fitted coefficient vectors of one benchmark's model pair.
    pub fn models(&mut self, m: &PaperModels) {
        for model in [m.performance_model(), m.power_model()] {
            self.word(model.coefficients().len() as u64);
            for &c in model.coefficients() {
                self.f64(c);
            }
        }
    }

    /// A query result in its canonical versioned JSON.
    pub fn query_result(&mut self, r: &QueryResult) {
        self.bytes(r.to_json().to_string_compact().as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// A simulated or predicted `(bips, watts)` pair is usable only when both
/// are finite and positive.
pub fn valid(m: &Metrics) -> bool {
    m.bips.is_finite() && m.bips > 0.0 && m.watts.is_finite() && m.watts > 0.0
}

/// Every prediction inside a query result is [`valid`].
pub fn valid_result(r: &QueryResult) -> bool {
    let rows_ok =
        |rows: &[udse_core::query::PredictedPoint]| rows.iter().all(|p| valid(&p.predicted));
    match r {
        QueryResult::Point { row, .. } => valid(&row.predicted),
        QueryResult::Optima { entries } => entries.iter().all(|e| {
            e.score.is_finite() && e.score > 0.0 && e.predicted.as_ref().is_none_or(valid)
        }),
        QueryResult::Frontier { designs, .. } => !designs.is_empty() && rows_ok(designs),
        QueryResult::Ranking { entries, .. } => !entries.is_empty() && rows_ok(entries),
        QueryResult::Delta { base, alternative, .. } => {
            valid(&base.predicted) && valid(&alternative.predicted)
        }
        QueryResult::Sweep { rows, .. } => !rows.is_empty() && rows_ok(rows),
    }
}
