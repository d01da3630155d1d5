// Fixture: a Mutex guard held across blocking calls — the PR-4/PR-5
// bug class rule `guard-across-blocking` exists to catch. Expected
// findings: the sync-channel send, the fsync, the call into the local
// helper the may-block fixpoint marks blocking, and the two condvar
// waits.

fn held_across_send(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::SyncSender<u32>) {
    let guard = recover_poisoned(m.lock());
    tx.send(*guard).ok();
}

fn held_across_fsync(m: &std::sync::Mutex<std::fs::File>) -> std::io::Result<()> {
    let file = recover_poisoned(m.lock());
    file.sync_data()
}

fn held_across_helper(m: &std::sync::Mutex<std::fs::File>) {
    let file = recover_poisoned(m.lock());
    persist(&file);
}

fn held_across_condvar_waits(
    m: &std::sync::Mutex<u32>,
    queue: &std::sync::Mutex<Vec<u32>>,
    ready: &std::sync::Condvar,
) {
    let count = recover_poisoned(m.lock());
    // Each wait releases the queue lock it is handed while it is parked,
    // but `count` stays locked the whole time.
    let q = recover_poisoned(ready.wait_while(recover_poisoned(queue.lock()), |q| q.is_empty()));
    drop(q);
    let pause = std::time::Duration::from_millis(1);
    let _ = ready.wait_timeout_while(recover_poisoned(queue.lock()), pause, |q| q.is_empty());
    drop(count);
}

// The fixpoint marks this may-block: it fsyncs.
fn persist(file: &std::fs::File) {
    file.sync_data().ok();
}

#[cfg(test)]
mod tests {
    // Test code may hold guards across whatever it likes.
    #[test]
    fn in_tests_this_is_fine() {
        let m = std::sync::Mutex::new(0u32);
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let guard = m.lock().unwrap();
        tx.send(*guard).ok();
    }
}
