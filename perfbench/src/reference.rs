//! The committed `--cold`, single-thread reference: the simulated value of
//! every cell any seeded grid can draw, on every swept surface.
//!
//! Sweep payloads are checked against payloads the runner renders from
//! these values, so a run needs no cold pass of its own. The table is the
//! output contract: a change that moves a simulated value must regenerate
//! it (`perfbench --write-reference`) and say why.

use std::collections::HashMap;

use gasnub_core::SweepOp;

/// The committed table.
pub const COMMITTED: &str = include_str!("../reference/cold-cells.tsv");

/// Reference values by `(machine, op, ws, stride)`.
#[derive(Debug, Default)]
pub struct Reference {
    bits: HashMap<(String, String, u64, u64), u64>,
}

impl Reference {
    /// Parses a table: `#` comments, then tab-separated `machine op ws
    /// stride bits` rows with the value's bits in hex.
    ///
    /// # Errors
    ///
    /// Names the first malformed row.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut bits = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let bad = || format!("reference row {}: {line:?}", n + 1);
            let f: Vec<&str> = line.split('\t').collect();
            let [machine, op, ws, stride, value] = f.as_slice() else {
                return Err(bad());
            };
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let value = u64::from_str_radix(value, 16).map_err(|_| bad())?;
            bits.insert(
                (machine.to_string(), op.to_string(), num(ws)?, num(stride)?),
                value,
            );
        }
        Ok(Reference { bits })
    }

    /// The committed table, parsed.
    ///
    /// # Errors
    ///
    /// As [`Reference::parse`].
    pub fn committed() -> Result<Reference, String> {
        Self::parse(COMMITTED)
    }

    /// The reference value of one cell.
    pub fn value(&self, machine: &str, op: SweepOp, ws: u64, stride: u64) -> Option<f64> {
        self.bits
            .get(&(machine.to_string(), op.label().to_string(), ws, stride))
            .map(|&b| f64::from_bits(b))
    }
}

/// Renders one table row.
pub fn row(machine: &str, op: SweepOp, ws: u64, stride: u64, value: f64) -> String {
    format!(
        "{machine}\t{}\t{ws}\t{stride}\t{:016x}\n",
        op.label(),
        value.to_bits()
    )
}
