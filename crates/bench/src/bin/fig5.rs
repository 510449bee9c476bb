//! Regenerates the paper's fig5 (see au_bench::experiments::fig5).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig5] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig5::run(scale);
}
