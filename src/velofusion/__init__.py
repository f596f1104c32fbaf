"""Point-wise 3D velocity estimation from FMCW radar, LiDAR and optical flow.

Pipeline: simulate (or record) raw ADC frames -> windowed FFTs build a
(range, azimuth, elevation, doppler) magnitude cube -> relative-intensity
threshold -> Doppler collapse into a per-voxel radial velocity cube ->
context-window table over all voxels, read at every LiDAR point + optical
flow -> closed-form 3D velocity per point -> object-wise metrics.
"""
from .cube import (
    AdcCube,
    RadarConfig,
    RadarCube,
    bin_to_physical,
    build_radar_cube,
    doppler_bin_velocities,
    threshold_cube,
)
from .fusion import (
    DEFAULT_COND_BOUND,
    estimate_frame,
    read_flow,
    solve_velocities,
)
from .io import (
    FormatError,
    FrameBundle,
    load_scene,
    read_frame_sequence,
    read_tensor,
    read_velocity_sequence,
    write_frame_sequence,
    write_report,
    write_tensor,
    write_velocity_sequence,
)
from .metrics import (
    EvalFrame,
    MetricsReport,
    ObjectTrack,
    TrackFrame,
    avae,
    ave,
    build_tracks,
    cluster_points,
    decompose_radial_tangential,
    evaluate_tracks,
    scored_frames,
)
from .sim import (
    Scatterer,
    SceneConfig,
    advance_scene,
    ground_truth_velocities,
    simulate_adc,
    synth_flow,
    synth_lidar,
)
from .types import (
    CameraModel,
    FlowField,
    FramePair,
    PointCloud,
    PointStatus,
    VelocityPointCloud,
    project_points,
)
from .velcube import (
    ContextWindow,
    VelocityCube,
    cartesian_to_polar,
    collapse_doppler,
    query_radial_velocity,
    window_coverage,
    window_table,
)

__version__ = "0.1.0"
