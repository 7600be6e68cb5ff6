//! The batched mailbox fabric's contract, exercised directly: FIFO per
//! directed pair whatever the batching, `Full` backpressure that cyclic
//! senders survive at any capacity, disconnect detection in both
//! directions, wake-ups that are never lost, and depths counted in
//! messages.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use shard::comm::{fabric, Mailbox, RecvTimeoutError, TryRecvError, TrySendError};

/// `(source shard, sequence number on the directed pair)`.
type Msg = (usize, u64);

/// xorshift64: the tests need cheap, seeded, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Checks that what one shard receives is, per source, exactly
/// `0, 1, 2, …`.
struct Ledger {
    next: Vec<u64>,
}

impl Ledger {
    fn new(num_shards: usize) -> Self {
        Ledger {
            next: vec![0; num_shards],
        }
    }

    fn note(&mut self, (src, seq): Msg) {
        assert_eq!(seq, self.next[src], "pair from shard {src} out of order");
        self.next[src] += 1;
    }

    fn drain(&mut self, mailbox: &mut Mailbox<Msg>) -> usize {
        let mut n = 0;
        while let Ok(msg) = mailbox.try_recv() {
            self.note(msg);
            n += 1;
        }
        n
    }
}

#[test]
fn fifo_per_pair_under_random_batches_and_interleaved_publishes() {
    // One thread drives four mailboxes through a random interleaving of
    // sends, publishes and receives, so every schedule is reproducible.
    const K: usize = 4;
    const PER_PAIR: u64 = 3_000;
    for (capacity, seed) in [(1, 1u64), (3, 2), (8, 3), (1024, 4)] {
        let (mut boxes, _probe) = fabric::<Msg>(K, capacity);
        let mut ledgers: Vec<Ledger> = (0..K).map(|_| Ledger::new(K)).collect();
        let mut sent = [[0u64; K]; K];
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
        let mut open_pairs = K * (K - 1);
        while open_pairs > 0 {
            let src = rng.below(K as u64) as usize;
            match rng.below(8) {
                // Mostly sends, in bursts of random length.
                0..=4 => {
                    let dst = (src + 1 + rng.below(K as u64 - 1) as usize) % K;
                    for _ in 0..=rng.below(12) {
                        if sent[src][dst] == PER_PAIR {
                            break;
                        }
                        match boxes[src].try_send(dst, (src, sent[src][dst])) {
                            Ok(()) => {
                                sent[src][dst] += 1;
                                if sent[src][dst] == PER_PAIR {
                                    open_pairs -= 1;
                                }
                            }
                            // Backpressure: the receiver makes room.
                            Err(TrySendError::Full(_)) => {
                                ledgers[dst].drain(&mut boxes[dst]);
                            }
                            Err(TrySendError::Disconnected) => panic!("nobody exited"),
                        }
                    }
                }
                5 => {
                    boxes[src].flush();
                }
                // A receiver takes one message, leaving a partly
                // consumed batch behind, or drains.
                6 => {
                    if let Ok(msg) = boxes[src].try_recv() {
                        ledgers[src].note(msg);
                    }
                }
                _ => {
                    ledgers[src].drain(&mut boxes[src]);
                }
            }
        }
        // Everything staged goes out once the receivers keep draining.
        loop {
            let mut clear = true;
            for shard in 0..K {
                clear &= boxes[shard].flush();
                ledgers[shard].drain(&mut boxes[shard]);
            }
            if clear {
                break;
            }
        }
        for (dst, ledger) in ledgers.iter_mut().enumerate() {
            ledger.drain(&mut boxes[dst]);
            for src in 0..K {
                let want = if src == dst { 0 } else { PER_PAIR };
                assert_eq!(
                    ledger.next[src], want,
                    "capacity {capacity}: {src} -> {dst}"
                );
            }
        }
    }
}

/// One shard of the cyclic exchange: send `per_peer` messages to every
/// other shard while draining its own inbox whenever a destination is
/// full, then keep receiving until it has everything it is owed.
fn exchange(mut mailbox: Mailbox<Msg>, num_shards: usize, per_peer: u64, seed: u64) {
    let me = mailbox.shard();
    let mut ledger = Ledger::new(num_shards);
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9) | 1);
    let deadline = Instant::now() + Duration::from_secs(120);
    for seq in 0..per_peer {
        for dst in (0..num_shards).filter(|&d| d != me) {
            let mut msg = (me, seq);
            loop {
                match mailbox.try_send(dst, msg) {
                    Ok(()) => break,
                    Err(TrySendError::Full(back)) => {
                        msg = back;
                        if ledger.drain(&mut mailbox) == 0 {
                            std::thread::yield_now();
                        }
                        assert!(Instant::now() < deadline, "shard {me} stuck sending");
                    }
                    Err(TrySendError::Disconnected) => panic!("peer {dst} exited early"),
                }
            }
        }
        if rng.below(5) == 0 {
            mailbox.flush();
        }
    }
    let owed = per_peer * (num_shards as u64 - 1);
    loop {
        let clear = mailbox.flush();
        ledger.drain(&mut mailbox);
        let received: u64 = ledger.next.iter().sum();
        if clear && received == owed {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "shard {me} stuck: {received}/{owed}"
        );
        if !clear {
            std::thread::yield_now();
            continue;
        }
        // Nothing left to push: block for the rest. Peers that are done
        // may leave; what they published stays.
        if let Ok(msg) = mailbox.recv_timeout(Duration::from_millis(50)) {
            ledger.note(msg);
        }
    }
}

#[test]
fn cyclic_senders_survive_backpressure_at_capacity_1_2_and_1024() {
    for (num_shards, per_peer) in [(2usize, 20_000u64), (4, 5_000)] {
        for capacity in [1usize, 2, 1024] {
            let (boxes, _probe) = fabric::<Msg>(num_shards, capacity);
            let start = Barrier::new(num_shards);
            std::thread::scope(|scope| {
                for mailbox in boxes {
                    let start = &start;
                    scope.spawn(move || {
                        let seed = mailbox.shard() as u64 + 1;
                        start.wait();
                        exchange(mailbox, num_shards, per_peer, seed);
                    });
                }
            });
        }
    }
}

#[test]
fn capacity_one_hands_over_message_by_message() {
    let (mut boxes, probe) = fabric::<Msg>(2, 1);
    let mut b = boxes.pop().unwrap();
    let mut a = boxes.pop().unwrap();
    // No flush needed: a one-message staging buffer is full at once.
    a.try_send(1, (0, 0)).unwrap();
    assert_eq!(probe.depths(), vec![0, 1]);
    // The second waits staged behind the full inbox; the third is Full.
    a.try_send(1, (0, 1)).unwrap();
    assert_eq!(probe.depths(), vec![0, 1]);
    assert_eq!(a.try_send(1, (0, 2)), Err(TrySendError::Full((0, 2))));
    assert!(!a.flush());
    assert_eq!(b.try_recv(), Ok((0, 0)));
    assert_eq!(b.try_recv(), Err(TryRecvError::Empty));
    assert!(a.flush());
    assert_eq!(b.try_recv(), Ok((0, 1)));
}

#[test]
fn depth_counts_messages_published_and_partly_consumed() {
    let (mut boxes, probe) = fabric::<Msg>(3, 16);
    let mut c = boxes.pop().unwrap();
    let mut b = boxes.pop().unwrap();
    let mut a = boxes.pop().unwrap();
    for seq in 0..5 {
        a.try_send(2, (0, seq)).unwrap();
    }
    assert_eq!(probe.depths(), vec![0, 0, 0], "staged is not in flight yet");
    assert!(a.flush());
    for seq in 0..3 {
        b.try_send(2, (1, seq)).unwrap();
    }
    assert!(b.flush());
    // Two batches, eight messages.
    assert_eq!(probe.depths(), vec![0, 0, 8]);
    assert_eq!(c.inbox_len(), 8);
    assert_eq!(c.try_recv(), Ok((0, 0)));
    assert_eq!(
        probe.depths(),
        vec![0, 0, 7],
        "the taken batch still counts"
    );
    a.try_send(2, (0, 5)).unwrap();
    assert!(a.flush());
    assert_eq!(probe.depths(), vec![0, 0, 8]);
    let mut ledger = Ledger::new(3);
    ledger.next[0] = 1;
    assert_eq!(ledger.drain(&mut c), 8);
    assert_eq!(probe.depths(), vec![0, 0, 0]);
}

#[test]
fn a_full_inbox_takes_part_of_a_batch_in_order() {
    let (mut boxes, probe) = fabric::<Msg>(2, 4);
    let mut b = boxes.pop().unwrap();
    let mut a = boxes.pop().unwrap();
    for seq in 0..3 {
        a.try_send(1, (0, seq)).unwrap();
    }
    assert!(a.flush());
    for seq in 3..6 {
        a.try_send(1, (0, seq)).unwrap();
    }
    // Room for one of the three.
    assert!(!a.flush());
    assert_eq!(probe.depths(), vec![0, 4]);
    let mut ledger = Ledger::new(2);
    assert_eq!(ledger.drain(&mut b), 4);
    assert!(a.flush());
    assert_eq!(ledger.drain(&mut b), 2);
}

#[test]
fn send_to_an_exited_shard_is_disconnected() {
    let (mut boxes, _probe) = fabric::<Msg>(2, 4);
    let b = boxes.pop().unwrap();
    let mut a = boxes.pop().unwrap();
    a.try_send(1, (0, 0)).unwrap();
    drop(b);
    assert_eq!(a.try_send(1, (0, 1)), Err(TrySendError::Disconnected));
    // What was staged toward it is dropped, not kept forever.
    assert!(a.flush());
}

#[test]
fn receive_is_disconnected_once_every_sender_is_gone_and_the_inbox_is_empty() {
    let (mut boxes, _probe) = fabric::<Msg>(3, 4);
    let mut c = boxes.pop().unwrap();
    let mut b = boxes.pop().unwrap();
    let a = boxes.pop().unwrap();
    assert_eq!(c.try_recv(), Err(TryRecvError::Empty));
    drop(a);
    assert_eq!(c.try_recv(), Err(TryRecvError::Empty), "b can still send");
    b.try_send(2, (1, 0)).unwrap();
    assert!(b.flush());
    drop(b);
    // Published before the sender left: still delivered.
    assert_eq!(c.recv_timeout(Duration::from_secs(5)), Ok((1, 0)));
    assert_eq!(c.try_recv(), Err(TryRecvError::Disconnected));
    assert_eq!(
        c.recv_timeout(Duration::from_secs(5)),
        Err(RecvTimeoutError::Disconnected)
    );
}

#[test]
fn a_parked_receiver_wakes_when_the_last_sender_leaves() {
    let (mut boxes, _probe) = fabric::<Msg>(2, 4);
    let mut b = boxes.pop().unwrap();
    let a = boxes.pop().unwrap();
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || b.recv_timeout(Duration::from_secs(30)));
        drop(a);
        assert_eq!(waiter.join().unwrap(), Err(RecvTimeoutError::Disconnected));
    });
}

#[test]
fn recv_timeout_times_out_while_senders_live() {
    let (mut boxes, _probe) = fabric::<Msg>(2, 4);
    assert_eq!(
        boxes[0].recv_timeout(Duration::from_millis(2)),
        Err(RecvTimeoutError::Timeout)
    );
}

#[test]
fn ping_pong_never_loses_a_wakeup() {
    // Each side parks until the other publishes. A publish that fails to
    // wake a parked receiver leaves it asleep for the whole (generous)
    // timeout, which fails the round.
    const ROUNDS: u64 = 100_000;
    const PATIENCE: Duration = Duration::from_secs(20);
    let (mut boxes, _probe) = fabric::<Msg>(2, 4);
    let mut b = boxes.pop().unwrap();
    let mut a = boxes.pop().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for round in 0..ROUNDS {
                assert_eq!(
                    b.recv_timeout(PATIENCE),
                    Ok((0, round)),
                    "ping {round} lost"
                );
                b.try_send(0, (1, round)).unwrap();
                assert!(b.flush());
            }
        });
        for round in 0..ROUNDS {
            a.try_send(1, (0, round)).unwrap();
            assert!(a.flush());
            assert_eq!(
                a.recv_timeout(PATIENCE),
                Ok((1, round)),
                "pong {round} lost"
            );
        }
    });
}
