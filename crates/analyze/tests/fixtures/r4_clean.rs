// Fixture: every lock result routed through the sanctioned helper.
// Expected findings: none.

use rms_serve::sync::recover_poisoned;

fn reads(m: &std::sync::Mutex<u32>) -> u32 {
    *recover_poisoned(m.lock())
}

fn store(m: &std::sync::RwLock<u32>) {
    *recover_poisoned(m.write()) = 7;
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap_locks() {
        let m = std::sync::Mutex::new(1u32);
        assert_eq!(*m.lock().unwrap(), 1);
    }
}
