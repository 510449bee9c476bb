//! Regenerates the paper's table13 (see au_bench::experiments::table13).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[table13] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::table13::run(scale);
}
