//! `perfbench`: the open-loop loopback benchmark of the reputation server.
//!
//! ```text
//! perfbench --work DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a manifest line, then the JSON result line. See `README.md`.

use perfbench::alloc::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() {
    let report = perfbench::Args::parse(std::env::args().skip(1))
        .and_then(|args| perfbench::run(&args))
        .and_then(|report| Ok((report.manifest_line(), report.result_line()?)));
    match report {
        Ok((manifest, result)) => {
            println!("{manifest}");
            println!("{result}");
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(1);
        }
    }
}
