//! Records the rustflags this benchmark was compiled with, so every
//! result can be stamped with them (`.cargo/config.toml` sets
//! `target-cpu=native`, and an environment override changes speed).

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
