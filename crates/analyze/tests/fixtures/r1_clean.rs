// Fixture: the clean counterparts — guard dropped (explicitly or by
// scope) before any blocking call. Expected findings: none.

fn drop_before_send(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let guard = recover_poisoned(m.lock());
    let value = *guard;
    drop(guard);
    tx.send(value).ok();
}

fn scope_before_send(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    let value = {
        let guard = recover_poisoned(m.lock());
        *guard
    };
    tx.send(value).ok();
}

fn nonblocking_under_guard(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::SyncSender<u32>) {
    // try_send never blocks, so the guard may stay alive across it.
    let guard = recover_poisoned(m.lock());
    tx.try_send(*guard).ok();
}

fn unbounded_send_under_guard(m: &std::sync::Mutex<u32>, tx: &std::sync::mpsc::Sender<u32>) {
    // An unbounded `Sender::send` enqueues without blocking, so the
    // channel classifier lets the guard stay alive across it.
    let guard = recover_poisoned(m.lock());
    tx.send(*guard).ok();
}
