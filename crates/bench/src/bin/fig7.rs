//! Regenerates the paper's fig7 (see au_bench::experiments::fig7).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig7] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig7::run(scale);
}
