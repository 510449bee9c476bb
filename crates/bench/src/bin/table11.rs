//! Regenerates the paper's table11 (see au_bench::experiments::table11).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table11] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table11::run(scale);
}
