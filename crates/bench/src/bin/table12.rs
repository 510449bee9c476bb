//! Regenerates the paper's table12 (see au_bench::experiments::table12).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table12] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table12::run(scale);
}
