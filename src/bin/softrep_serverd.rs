//! The deployable reputation server binary.
//!
//! Runs the full §3.2 server over a durable on-disk store, with the framed
//! XML protocol on one port and the read-only web interface on another,
//! plus a maintenance loop driving the 24 h aggregation schedule.
//!
//! ```text
//! softrep-serverd [--data DIR] [--proto ADDR] [--web ADDR]
//!                [--pepper SECRET] [--puzzle-difficulty N]
//!                [--analyzer-token TOKEN] [--durability MODE]
//!                [--replica-of ADDR]
//! ```
//!
//! `--replica-of ADDR` runs this node as a read replica of the primary at
//! `ADDR` (its protocol address): the store is kept current by tailing
//! the primary's WAL (bootstrapping from a snapshot when needed), read
//! queries and the web interface are served locally, and every write
//! request is answered with a `not-primary` redirect carrying `ADDR`.
//! Replicas skip the aggregation schedule — rating records are computed
//! on the primary and replicated like any other data.
//!
//! The protocol port is served by the event-driven reactor on Linux (one
//! event loop, thousands of concurrent connections) and by the portable
//! thread-per-connection pool (64 workers) elsewhere.
//!
//! `--durability` selects the WAL sync policy: `always` (fsync before every
//! commit returns, group-committed across concurrent writers), `batched:N`
//! (fsync once at least `N` bytes have been logged), or `os` (default —
//! flush to the OS on every commit, fsync on the maintenance timer).
//!
//! Example:
//!
//! ```sh
//! cargo run --bin softrep-serverd -- --data /tmp/softrep --proto 127.0.0.1:7007 --web 127.0.0.1:7080
//! ```

use std::sync::Arc;

use softwareputation::core::clock::SystemClock;
use softwareputation::core::db::ReputationDb;
use softwareputation::crypto::salted::SecretPepper;
use softwareputation::server::pseudonym_key::KEY_FILE;
use softwareputation::server::repl::ReplicaTail;
use softwareputation::server::tcp::{FrontendServer, TcpServerConfig};
use softwareputation::server::web::WebServer;
use softwareputation::server::{ReputationServer, ServerConfig};
use softwareputation::storage::{DurabilityMode, Store, StoreOptions};

struct Args {
    data: String,
    proto: String,
    web: String,
    pepper: String,
    puzzle_difficulty: u8,
    analyzer_token: Option<String>,
    durability: DurabilityMode,
    replica_of: Option<String>,
}

/// Parse `always`, `batched:BYTES`, or `os` into a [`DurabilityMode`].
fn parse_durability(value: &str) -> Result<DurabilityMode, String> {
    match value {
        "always" => Ok(DurabilityMode::Always),
        "os" => Ok(DurabilityMode::Os),
        other => match other.strip_prefix("batched:").and_then(|n| n.parse::<u64>().ok()) {
            Some(every_bytes) if every_bytes > 0 => Ok(DurabilityMode::Batched { every_bytes }),
            _ => Err(format!(
                "--durability must be 'always', 'batched:BYTES' (BYTES > 0), or 'os'; got {other}"
            )),
        },
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        data: "./softrep-data".into(),
        proto: "127.0.0.1:7007".into(),
        web: "127.0.0.1:7080".into(),
        pepper: String::new(),
        puzzle_difficulty: 12,
        analyzer_token: None,
        durability: DurabilityMode::default(),
        replica_of: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--data" => args.data = value("--data")?,
            "--proto" => args.proto = value("--proto")?,
            "--web" => args.web = value("--web")?,
            "--pepper" => args.pepper = value("--pepper")?,
            "--puzzle-difficulty" => {
                args.puzzle_difficulty = value("--puzzle-difficulty")?
                    .parse()
                    .map_err(|_| "--puzzle-difficulty must be 0-32".to_string())?;
            }
            "--analyzer-token" => args.analyzer_token = Some(value("--analyzer-token")?),
            "--durability" => args.durability = parse_durability(&value("--durability")?)?,
            "--replica-of" => args.replica_of = Some(value("--replica-of")?),
            "--help" | "-h" => {
                println!(
                    "softrep-serverd --data DIR --proto ADDR --web ADDR \
                     [--pepper SECRET] [--puzzle-difficulty N] [--analyzer-token TOKEN] \
                     [--durability always|batched:BYTES|os] [--replica-of ADDR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.pepper.is_empty() {
        return Err(
            "--pepper is required: the secret string that protects stored e-mail hashes (§2.2). \
             Losing it invalidates duplicate detection; leaking it enables dictionary attacks."
                .into(),
        );
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    let store_options = StoreOptions { durability: args.durability, ..StoreOptions::default() };
    let store = match Store::open_with(&args.data, store_options) {
        Ok(store) => Arc::new(store),
        Err(e) => {
            eprintln!("error: cannot open data directory {}: {e}", args.data);
            std::process::exit(1);
        }
    };
    let db =
        ReputationDb::new(Arc::clone(&store), SecretPepper::new(args.pepper.as_bytes().to_vec()));

    // Seed the RNG from the OS for production use.
    let seed = {
        use rand::RngCore;
        rand::rngs::OsRng.next_u64()
    };
    let server = Arc::new(ReputationServer::new(
        db,
        Arc::new(SystemClock),
        ServerConfig {
            puzzle_difficulty: args.puzzle_difficulty,
            analyzer_token: args.analyzer_token,
            pseudonym_key_bits: 1024,
            ..ServerConfig::default()
        },
        seed,
    ));

    let tcp_config =
        TcpServerConfig { replica_of: args.replica_of.clone(), ..TcpServerConfig::default() };
    let tcp = match FrontendServer::spawn_with(Arc::clone(&server), args.proto.as_str(), tcp_config)
    {
        Ok(tcp) => tcp,
        Err(e) => {
            eprintln!("error: cannot bind protocol address {}: {e}", args.proto);
            std::process::exit(1);
        }
    };
    let web = match WebServer::spawn(Arc::clone(&server), args.web.as_str()) {
        Ok(web) => web,
        Err(e) => {
            eprintln!("error: cannot bind web address {}: {e}", args.web);
            std::process::exit(1);
        }
    };

    // A replica pulls the primary's log for as long as the process lives;
    // the handle is only dropped (joining the tail) at process exit.
    let _tail = match &args.replica_of {
        Some(primary) => match ReplicaTail::spawn(Arc::clone(&server), primary.clone()) {
            Ok(tail) => Some(tail),
            Err(e) => {
                eprintln!("error: cannot start replication tail: {e}");
                std::process::exit(1);
            }
        },
        None => None,
    };

    println!("softwareputation server");
    println!("  data      {}", args.data);
    println!("  protocol  {}", tcp.local_addr());
    println!("  web       http://{}", web.local_addr());
    if let Some(primary) = &args.replica_of {
        println!("  replica-of {primary}");
    }
    println!("  puzzles   difficulty {}", args.puzzle_difficulty);
    println!("  durability {:?}", args.durability);
    if args.replica_of.is_some() {
        println!("  pseudonym credentials: refused on a replica; the primary holds the key");
    } else {
        println!(
            "  pseudonym credentials: 1024-bit blind-signature key, made on first use, kept in {}",
            std::path::Path::new(&args.data).join(KEY_FILE).display()
        );
    }
    let stats = server.db().deployment_stats();
    println!(
        "  database  {} users, {} software, {} votes",
        stats.users, stats.software, stats.votes
    );

    // Maintenance loop: aggregation schedule, session pruning, periodic
    // compaction + fsync. Ctrl-C terminates the process; the WAL makes
    // that safe at any instant.
    let mut iterations = 0u64;
    let is_replica = args.replica_of.is_some();
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        // Replicas receive rating records through the log like any other
        // data; running aggregation locally would race the primary's.
        if !is_replica {
            let recomputed = server.tick();
            if recomputed > 0 {
                println!("aggregation batch: {recomputed} ratings recomputed");
            }
        }
        let _ = store.sync();
        iterations += 1;
        if iterations.is_multiple_of(60) {
            match store.compact() {
                Ok(()) => println!("store compacted"),
                Err(e) => eprintln!("compaction failed: {e}"),
            }
        }
    }
}
