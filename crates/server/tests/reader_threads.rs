//! A closed connection must not keep its reader thread's memory.
//!
//! The server spawns one reader thread per connection. A thread that has
//! exited keeps its stack mapped until its handle is joined or dropped,
//! so a server that held every handle until drain grew by one stack per
//! connection it ever accepted. This test drives many connect/close
//! cycles against an in-process server and bounds the growth of the
//! process's virtual size. It lives in its own file, so it runs in its
//! own process and nothing else maps memory meanwhile.
#![cfg(target_os = "linux")]

use ljqo_server::{fetch_stats_http, Server, ServerConfig};

/// The process's virtual size in KiB (`VmSize` in `/proc/self/status`).
fn vm_size_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmSize:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmSize line")
}

#[test]
fn closed_connections_release_their_reader_threads() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("bind on an ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    // One cycle is one connection: a `/stats` request over HTTP, read
    // until the server closes it.
    let cycle = || {
        fetch_stats_http(addr).expect("stats over HTTP");
    };
    // The warm-up lets the allocator and the thread-stack cache settle.
    (0..256).for_each(|_| cycle());
    let before = vm_size_kib();
    (0..512).for_each(|_| cycle());
    let grown_mib = vm_size_kib().saturating_sub(before) / 1024;

    handle.shutdown();
    running.join().expect("server thread");
    // A leaked reader keeps about 2 MiB of stack, so 512 leaks would
    // grow the process by about 1 GiB.
    assert!(
        grown_mib < 256,
        "512 closed connections grew the process by {grown_mib} MiB"
    );
}
