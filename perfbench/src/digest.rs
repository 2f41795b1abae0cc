//! Digest of simulated output, for comparing runs and commits.
//!
//! Values are folded through their `Debug` text, which prints every field
//! and renders each `f64` in its shortest exact form, so two digests agree
//! only if every simulated number agrees bit for bit.

use std::fmt::Debug;

/// FNV-1a over the `Debug` text of the folded values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn of(value: &impl Debug) -> Self {
        let mut d = Digest::default();
        d.fold(value);
        d
    }

    pub fn fold(&mut self, value: &impl Debug) {
        for b in format!("{value:?}").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator, so adjacent values cannot run together.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
