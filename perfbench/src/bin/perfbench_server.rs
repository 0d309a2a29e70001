//! `perfbench-server`: the benchmark's server process.
//!
//! Opens the store as the deployment binary (`src/bin/softrep_serverd.rs`)
//! does, with `Store::open_with` and the default `os` durability, serves
//! the server `perfbench::server` assembles, and runs the deployment
//! binary's maintenance loop.
//!
//! ```text
//! perfbench-server --data DIR --proto ADDR --web ADDR [--replica-of ADDR]
//! ```

use std::sync::Arc;
use std::time::Duration;

use softrep_server::repl::ReplicaTail;
use softrep_storage::{Store, StoreOptions};

struct Args {
    data: String,
    proto: String,
    web: String,
    replica_of: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let (mut data, mut proto, mut web, mut replica_of) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--data" => data = Some(value),
            "--proto" => proto = Some(value),
            "--web" => web = Some(value),
            "--replica-of" => replica_of = Some(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        data: data.ok_or("--data is required")?,
        proto: proto.ok_or("--proto is required")?,
        web: web.ok_or("--web is required")?,
        replica_of,
    })
}

fn exit_with(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    });
    let store = Store::open_with(&args.data, StoreOptions::default())
        .map(Arc::new)
        .unwrap_or_else(|e| exit_with(format!("cannot open data directory {}: {e}", args.data)));
    let server = perfbench::server::assemble(Arc::clone(&store));
    let fronts = perfbench::server::serve(&server, &args.proto, &args.web, args.replica_of.clone())
        .unwrap_or_else(|msg| exit_with(msg));
    // A replica pulls the primary's log for as long as the process lives.
    let _tail = args.replica_of.as_ref().map(|primary| {
        ReplicaTail::spawn(Arc::clone(&server), primary.clone())
            .unwrap_or_else(|e| exit_with(format!("cannot start replication tail: {e}")))
    });
    println!(
        "perfbench-server protocol {} web {}",
        fronts.tcp.local_addr(),
        fronts.web.local_addr()
    );

    // The deployment binary's loop: the 24 h batch, a sync every minute,
    // hourly compaction.
    let is_replica = args.replica_of.is_some();
    let mut iterations = 0u64;
    loop {
        std::thread::sleep(Duration::from_secs(60));
        if !is_replica {
            server.tick();
        }
        let _ = store.sync();
        iterations += 1;
        if iterations.is_multiple_of(60) {
            let _ = store.compact();
        }
    }
}
