//! Regenerates the paper's fig3 (see au_bench::experiments::fig3).
fn main() {
    let scale = au_bench::scale_from_env(1.0);
    println!("[fig3] scale = {scale} (set AU_SCALE to change)\n");
    au_bench::experiments::fig3::run(scale);
}
