//! Credit-based flow control.
//!
//! Table 1: "credit-based" flow control with a single-flit buffer and
//! credits incurring a one-cycle channel delay. A [`CreditCounter`] tracks
//! the downstream space an upstream sender may use; the router models the
//! one-cycle return delay itself.

/// Credits available toward one downstream buffer.
#[derive(Debug, Clone)]
pub struct CreditCounter {
    credits: u32,
    max: u32,
}

impl CreditCounter {
    /// Creates a counter starting full at `max` credits.
    pub fn new(max: u32) -> Self {
        assert!(max > 0);
        Self { credits: max, max }
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.credits
    }

    /// Maximum (= downstream buffer depth).
    pub fn max(&self) -> u32 {
        self.max
    }

    /// True when at least one credit is available.
    pub fn can_send(&self) -> bool {
        self.credits > 0
    }

    /// Consumes one credit (a flit departed downstream).
    ///
    /// # Panics
    /// If no credits remain — sending without credit is a protocol bug.
    pub fn consume(&mut self) {
        assert!(self.credits > 0, "credit underflow");
        self.credits -= 1;
    }

    /// Returns one credit (downstream freed a slot).
    ///
    /// # Panics
    /// If already at maximum — returning a phantom credit is a protocol bug.
    pub fn restore(&mut self) {
        assert!(self.credits < self.max, "credit overflow");
        self.credits += 1;
    }

    /// Serializes the live credit count (`max` is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.u32(self.credits);
    }

    /// Overlays a checkpointed credit count.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let credits = r.u32()?;
        if credits > self.max {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "{credits} credits exceed depth {}",
                self.max
            )));
        }
        self.credits = credits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_consume_restore() {
        let mut c = CreditCounter::new(2);
        assert_eq!(c.available(), 2);
        assert!(c.can_send());
        c.consume();
        c.consume();
        assert!(!c.can_send());
        c.restore();
        assert_eq!(c.available(), 1);
        assert_eq!(c.max(), 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut c = CreditCounter::new(1);
        c.consume();
        c.consume();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut c = CreditCounter::new(1);
        c.restore();
    }
}
